"""Confidence-in-decision (CID) sensitivity analysis toolkit.

Quantifies how policy decisions derived from statistical estimates change
under departures from baseline assumptions: additive measurement error in
regression inputs, and missing-not-at-random mechanisms in categorical
outcome data.

The exports below are resolved on first use (PEP 562), so `import cid`
loads no numpy and `import cid.cli` compiles the CLI before numpy loads.
"""

import importlib

# The submodule that defines each exported name.
_EXPORTS = {
    "ImputationConfig": "imputation", "LeadPopulation": "imputation",
    "MnarMechanism": "imputation", "accordion_mechanism": "imputation",
    "impute_theta_grid": "imputation", "mar_mechanism": "imputation",
    "parametric_mechanism": "imputation",
    "CostParams": "metrics", "cid_general": "metrics", "cid_lead": "metrics",
    "max_cost": "metrics",
    "ElectionDataset": "regression", "FittedLine": "regression",
    "fit_simple_ols": "regression",
    "render_election_figure": "svgfig", "render_lead_figure": "svgfig",
    "CidCurve": "sweep", "KnobDistribution": "sweep", "KnobGrid": "sweep",
    "PlausibleRegion": "sweep", "expected_cid": "sweep",
    "min_cid_in_region": "sweep", "sweep_election": "sweep",
    "sweep_lead": "sweep",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its submodule on first use. Any
    other name is an AttributeError, so `from cid import sweep` imports the
    submodule."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
