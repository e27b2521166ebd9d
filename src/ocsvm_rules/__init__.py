"""Anomaly detection with box-rule explanations.

Fit a one-class SVM, split the data by its predictions, then mine
axis-aligned hypercube rules that describe the non-anomalous region (or
the anomalies), plus an optional decision-tree surrogate of the detector.
"""

from .clustering import Clustering, PlusPlusSeeds, kmeans_pp
from .dataset import (
    CATEGORICAL,
    NUMERICAL,
    Dataset,
    FeatureSchema,
    ScalingParams,
    build_schema,
    cyclical_decode,
    encode_matrix,
    expand_cyclical,
    load_csv,
    scale_apply,
    scale_fit,
    unique_categorical_states,
)
from .errors import (
    ConfigError,
    ExtractionConvergenceError,
    InsufficientDataError,
    OcsvmRulesError,
    ParseError,
    SchemaError,
    SolverConvergenceError,
)
from .ocsvm import (
    ANOMALOUS,
    NON_ANOMALOUS,
    KernelParams,
    OcsvmModel,
    decision_values,
    fit,
    fit_dataset,
    model_from_json,
    model_to_json,
    rbf_kernel_matrix,
    split_by_prediction,
)
from .rules import (
    TARGET_ANOMALOUS,
    TARGET_NON_ANOMALOUS,
    ExtractionConfig,
    ExtractionResult,
    Rule,
    RuleSet,
    bounding_box,
    covered_mask,
    extract_rule_sets,
    rule_to_text,
    ruleset_from_json,
    ruleset_to_json,
    ruleset_to_text,
)
from .surrogate import (
    TreeNode,
    TreeRule,
    fit_surrogate,
    fit_tree,
    predict_tree,
    training_accuracy,
    tree_stats,
    tree_to_json,
    tree_to_rules,
)

__version__ = "0.1.0"
