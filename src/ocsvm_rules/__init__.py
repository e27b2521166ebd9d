"""Anomaly detection with box-rule explanations.

Fit a one-class SVM, split the data by its predictions, then mine
axis-aligned hypercube rules that describe the non-anomalous region (or
the anomalies), plus an optional decision-tree surrogate of the detector.

The names below resolve on first use (PEP 562 module ``__getattr__``), each
from the module that defines it: importing the package, or a module in it,
loads numpy only when a name from a numpy-backed module is asked for. The
command line's ``report`` reads artifacts without numpy this way.
"""

import importlib

_EXPORTS = {
    "clustering": "Clustering PlusPlusSeeds kmeans_pp",
    "dataset": "CATEGORICAL NUMERICAL Dataset build_schema encode_matrix "
               "expand_cyclical load_csv scale_apply scale_fit unique_categorical_states",
    "errors": "ConfigError ExtractionConvergenceError InsufficientDataError "
              "OcsvmRulesError ParseError SchemaError SolverConvergenceError",
    "formats": "TARGET_ANOMALOUS TARGET_NON_ANOMALOUS ExtractionConfig FeatureSchema "
               "KernelParams Rule RuleSet ScalingParams cyclical_decode rule_to_text "
               "ruleset_from_json ruleset_to_json ruleset_to_text",
    "ocsvm": "ANOMALOUS NON_ANOMALOUS OcsvmModel decision_values fit fit_dataset "
             "model_from_json model_to_json rbf_kernel_matrix split_by_prediction",
    "rules": "ExtractionResult bounding_box covered_mask extract_rule_sets",
    "surrogate": "TreeNode TreeRule fit_surrogate fit_tree predict_tree "
                 "training_accuracy tree_stats tree_to_json tree_to_rules",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
