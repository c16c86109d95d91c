"""Decision rules mapping estimates (numbers or arrays) to discrete choices,
returned as integer codes into each rule family's tuple of CSV labels."""

from __future__ import annotations

import numpy as np

# Decision for each code decide_election_codes returns.
ELECTION_DECISIONS = ("challenger", "unclear", "incumbent")

# Decision for each code decide_intervention_codes returns.
INTERVENTION_DECISIONS = ("no-intervene", "intervene")

# Vote share (%) that separates the two candidates.
BOUNDARY = 50.0


def decide_election_codes(lower, upper) -> np.ndarray:
    """Three-way call from vote-share interval bounds (numbers or arrays);
    each code indexes ELECTION_DECISIONS.

    Ties at the boundary count as Unclear: an interval touching the boundary
    carries maximal uncertainty about the winner.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return np.where(BOUNDARY < lower, 2, np.where(upper < BOUNDARY, 0, 1))


def decide_intervention_codes(thetas, threshold: float) -> np.ndarray:
    """Two-way call from estimated proportions (a number or an array), each
    in [0, 1]: intervene where one strictly exceeds the threshold, itself in
    (0, 1). Each code indexes INTERVENTION_DECISIONS."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    thetas = np.asarray(thetas, dtype=float)
    outside = ~((0.0 <= thetas) & (thetas <= 1.0))
    if outside.any():
        raise ValueError(f"theta_hat must be in [0, 1], "
                         f"got {thetas[outside][0]}")
    return (thetas > threshold).astype(int)
