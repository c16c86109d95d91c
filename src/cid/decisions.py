"""Decision rules mapping estimates to discrete choices, plus a change indicator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .regression import Interval


class ElectionDecision(Enum):
    CHALLENGER_WINS = "challenger"
    UNCLEAR = "unclear"
    INCUMBENT_WINS = "incumbent"


# Decision for each code decide_election_codes returns.
ELECTION_DECISIONS = (ElectionDecision.CHALLENGER_WINS, ElectionDecision.UNCLEAR,
                      ElectionDecision.INCUMBENT_WINS)


class InterventionDecision(Enum):
    INTERVENE = "intervene"
    DONT_INTERVENE = "no-intervene"


# Decision for each code decide_intervention_codes returns.
INTERVENTION_DECISIONS = (InterventionDecision.DONT_INTERVENE,
                          InterventionDecision.INTERVENE)


@dataclass(frozen=True)
class ThresholdRule:
    """Intervene when the estimated proportion strictly exceeds the threshold."""

    threshold: float = 0.20

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")


def decide_election(interval: Interval, boundary: float = 50.0) -> ElectionDecision:
    """Three-way call from a vote-share interval.

    Ties at the boundary count as Unclear: an interval touching the boundary
    carries maximal uncertainty about the winner.
    """
    if boundary < interval.lower:
        return ElectionDecision.INCUMBENT_WINS
    if interval.upper < boundary:
        return ElectionDecision.CHALLENGER_WINS
    return ElectionDecision.UNCLEAR


def decide_election_codes(lower, upper, boundary: float = 50.0) -> np.ndarray:
    """decide_election over arrays of interval bounds, with the same
    comparisons; element i indexes ELECTION_DECISIONS."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return np.where(boundary < lower, 2, np.where(upper < boundary, 0, 1))


def decide_intervention(theta_hat: float, rule: ThresholdRule) -> InterventionDecision:
    """Two-way call from an estimated proportion; strict > at the threshold."""
    if not (0.0 <= theta_hat <= 1.0):
        raise ValueError(f"theta_hat must be in [0, 1], got {theta_hat}")
    if theta_hat > rule.threshold:
        return InterventionDecision.INTERVENE
    return InterventionDecision.DONT_INTERVENE


def decide_intervention_codes(thetas, rule: ThresholdRule) -> np.ndarray:
    """decide_intervention over an array of estimated proportions, with the
    same range check and strict > at the threshold; element i indexes
    INTERVENTION_DECISIONS."""
    thetas = np.asarray(thetas, dtype=float)
    outside = ~((0.0 <= thetas) & (thetas <= 1.0))
    if outside.any():
        raise ValueError(f"theta_hat must be in [0, 1], "
                         f"got {thetas[outside][0]}")
    return (thetas > rule.threshold).astype(int)


def decision_indicator(reference, candidate) -> int:
    """1 if the candidate decision equals the reference, else 0.

    Both decisions must come from the same rule family.
    """
    if type(reference) is not type(candidate):
        raise TypeError(
            f"cannot compare decisions from different rule families: "
            f"{type(reference).__name__} vs {type(candidate).__name__}"
        )
    return 1 if reference == candidate else 0
