"""Confidence-in-decision (CID) sensitivity analysis toolkit.

Quantifies how policy decisions derived from statistical estimates change
under departures from baseline assumptions: additive measurement error in
regression inputs, and missing-not-at-random mechanisms in categorical
outcome data.
"""

from .decisions import ElectionDecision, InterventionDecision, ThresholdRule
from .imputation import (ImputationConfig, LeadPopulation, MnarMechanism,
                         accordion_mechanism, draw_dirichlet_posterior,
                         impute_theta_grid, mar_mechanism,
                         parametric_mechanism)
from .metrics import CostParams, cid_general, cid_lead, max_cost
from .regression import ElectionDataset, FittedLine, fit_simple_ols
from .svgfig import render_election_figure, render_lead_figure
from .sweep import (CidCurve, KnobDistribution, KnobGrid, PlausibleRegion,
                    annotate_plausible_region, expected_cid, sweep_election,
                    sweep_lead)

__all__ = [
    "CidCurve", "CostParams", "ElectionDataset", "ElectionDecision",
    "FittedLine", "ImputationConfig", "InterventionDecision",
    "KnobDistribution", "KnobGrid", "LeadPopulation", "MnarMechanism",
    "PlausibleRegion", "ThresholdRule", "accordion_mechanism",
    "annotate_plausible_region", "cid_general", "cid_lead",
    "draw_dirichlet_posterior", "expected_cid", "fit_simple_ols",
    "impute_theta_grid", "mar_mechanism", "max_cost", "parametric_mechanism",
    "render_election_figure", "render_lead_figure", "sweep_election",
    "sweep_lead",
]

__version__ = "0.1.0"
