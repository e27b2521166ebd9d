"""Reference reader of the model document: ``model_from_json`` as it was
before its checks moved to the numpy-free ``formats.model_doc``.

The function is the former ``ocsvm_rules.ocsvm.model_from_json``, verbatim.
It checks the document and builds the arrays in one pass, with numpy doing
part of the checking: ``np.array`` rejects ragged support vectors and text
that is not a number, and ``np.isfinite`` everything that is not finite.
Tests hold the new reader to its verdicts, its messages and the model it
builds. It imports only the package's plain data classes and errors, which
both readers share.
"""

from __future__ import annotations

import json

import numpy as np

from ocsvm_rules.errors import ConfigError, SchemaError
from ocsvm_rules.formats import (
    ColumnScale,
    FeatureSchema,
    KernelParams,
    ScalingParams,
    cyclical_from_doc,
)
from ocsvm_rules.ocsvm import OcsvmModel

MODEL_FORMAT = "ocsvm-model/1"


def model_from_json(text: str) -> OcsvmModel:
    """Inverse of model_to_json; SchemaError for any other text.

    Every number the model scores with (rho, nu, gamma, the alphas, the
    support vectors and the scaling bounds) must be finite, and n_train must
    be an integer >= 2 and >= the support-vector count. The scaling holds
    exactly the numerical columns, each degenerate exactly when min == max.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object, got %s" % type(doc).__name__)
        if doc.get("format") != MODEL_FORMAT:
            raise SchemaError("unsupported model format: %r" % doc.get("format"))
        schema = FeatureSchema(
            numerical=tuple(doc["schema"]["numerical"]),
            categorical=tuple(doc["schema"]["categorical"]),
            levels={c: tuple(toks) for c, toks in doc["schema"]["levels"].items()},
            cyclical=cyclical_from_doc(doc["schema"].get("cyclical", {})),
        )
        scaling = ScalingParams(per_column={
            c: ColumnScale(min=s["min"], max=s["max"], degenerate=s["degenerate"])
            for c, s in doc["scaling"].items()
        })
        n_features = len(schema.feature_names())
        sv = np.array(doc["support_vectors"], dtype=np.float64)
        alphas = np.array(doc["alphas"], dtype=np.float64)
        if alphas.ndim != 1 or sv.shape != (alphas.size, n_features):
            raise SchemaError("support vectors of shape %s do not match %d alphas "
                              "and %d features" % (sv.shape, alphas.size, n_features))
        n_train = doc["n_train"]
        if (isinstance(n_train, bool) or not isinstance(n_train, int)
                or n_train < max(2, alphas.size)):
            raise SchemaError("n_train must be an integer >= 2 and >= the %d support "
                              "vectors, got %r" % (alphas.size, n_train))
        rho, nu = float(doc["rho"]), float(doc["nu"])
        bounds = [(sc.min, sc.max) for sc in scaling.per_column.values()]
        for what, values in (("rho", rho), ("nu", nu), ("alphas", alphas),
                             ("support_vectors", sv), ("scaling", bounds)):
            if not np.all(np.isfinite(values)):
                raise SchemaError("%s holds a non-finite number" % what)
        if set(scaling.per_column) != set(schema.numerical):
            raise SchemaError("scaling covers %s, not the numerical columns %s"
                              % (sorted(scaling.per_column), list(schema.numerical)))
        for c, sc in scaling.per_column.items():
            if sc.degenerate is not (sc.min == sc.max):
                raise SchemaError("scaling of %r: degenerate must be %s, got %r"
                                  % (c, sc.min == sc.max, sc.degenerate))
        model = OcsvmModel(
            support_vectors=sv,
            alphas=alphas,
            rho=rho,
            nu=nu,
            kernel=KernelParams(gamma=float(doc["gamma"])),
            n_train=n_train,
            schema=schema,
            scaling=scaling,
        )
    except KeyError as e:
        raise SchemaError("model has no field %s" % e) from None
    except (ValueError, TypeError, AttributeError, OverflowError, ConfigError) as e:
        raise SchemaError(str(e)) from None
    model.support_vectors.flags.writeable = False
    model.alphas.flags.writeable = False
    return model
