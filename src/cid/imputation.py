"""Multiple imputation of missing categorical outcomes under MAR and
log-odds pattern-mixture MNAR mechanisms, with point-estimate combining."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
# numpy.random is a package numpy loads lazily; importing it here keeps that
# cost in import time rather than in the first lead run.
from numpy.random import SeedSequence, default_rng

N_LEVELS = 10


@dataclass(frozen=True)
class MnarMechanism:
    """Per-level log-odds weights w; the tilt at knob value t adds t*w."""

    weights: tuple
    name: str = "custom"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ValueError("mechanism weights must be finite")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def accordion_mechanism() -> MnarMechanism:
    """Add t to the log-odds of the three lowest levels only."""
    return MnarMechanism(weights=(1, 1, 1, 0, 0, 0, 0, 0, 0, 0), name="accordion")


def parametric_mechanism() -> MnarMechanism:
    """Graded per-level weights, largest at the lowest levels."""
    return MnarMechanism(weights=(1, 0.9, 0.8, 0.6, 0.4, 0, 0, 0, -0.2, -0.25),
                         name="parametric")


def mar_mechanism(k: int = N_LEVELS) -> MnarMechanism:
    """All-zero weights: no tilt at any knob value."""
    return MnarMechanism(weights=(0,) * k, name="mar")


BUILTIN_MECHANISMS = {
    "accordion": accordion_mechanism,
    "parametric": parametric_mechanism,
    "mar": mar_mechanism,
}


@dataclass(frozen=True)
class LeadPopulation:
    """Observed per-level counts within a larger population of size n_total.

    Levels are 1..K; units with level > cutoff_level count as "high".
    """

    observed_counts: tuple
    n_total: int
    cutoff_level: int = 3

    def __post_init__(self):
        counts = np.asarray(self.observed_counts, dtype=np.int64)
        if len(counts) < 2:
            raise ValueError("need at least 2 levels")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if self.n_total < 1:
            raise ValueError(f"need n_total >= 1, got {self.n_total}")
        if counts.sum() > self.n_total:
            raise ValueError(
                f"observed count {counts.sum()} exceeds n_total {self.n_total}"
            )
        if not (1 <= self.cutoff_level < len(counts)):
            raise ValueError(f"need 1 <= cutoff level < number of levels, got "
                             f"cutoff level {self.cutoff_level} for "
                             f"{len(counts)} levels")

    @property
    def k(self) -> int:
        return len(self.observed_counts)

    @property
    def n_observed(self) -> int:
        return int(sum(self.observed_counts))

    @property
    def n_missing(self) -> int:
        return self.n_total - self.n_observed

    @property
    def observed_high_count(self) -> int:
        return int(sum(self.observed_counts[self.cutoff_level:]))

    @property
    def worst_case_theta(self) -> float:
        """Fraction above the cutoff if every missing unit were above it."""
        return (self.observed_high_count + self.n_missing) / self.n_total

    def counts_array(self) -> np.ndarray:
        return np.asarray(self.observed_counts, dtype=np.int64)


def read_level_counts(path) -> tuple:
    """Per-level counts from a `level,count` CSV covering levels 1..K."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        for column in ("level", "count"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path} has no {column!r} column")
        rows = [(int(r["level"]), int(r["count"])) for r in reader]
    rows.sort()
    levels = [lvl for lvl, _ in rows]
    if levels != list(range(1, len(rows) + 1)):
        raise ValueError(f"levels must be 1..K without gaps, got {levels}")
    return tuple(c for _, c in rows)


@dataclass(frozen=True)
class ImputationConfig:
    m: int = 5
    seed: int = 20240101

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


def substream(seed: int, m: int) -> np.random.Generator:
    """Independent generator for imputation m.

    Derived from seed and m alone, so results do not depend on evaluation
    order. The spawn key (0, m) keeps the streams of earlier versions.
    """
    return default_rng(SeedSequence(seed, spawn_key=(0, m)))


def draw_dirichlet_posterior(pop: LeadPopulation,
                             rng: np.random.Generator) -> np.ndarray:
    """One draw from Dirichlet(1 + n_1, ..., 1 + n_K), as a probability array.

    Drawn as K independent gamma variates with shapes 1 + n_k, normalized;
    all shapes are >= 1 thanks to the flat prior.
    """
    g = rng.standard_gamma(1.0 + pop.counts_array())
    return g / g.sum()


def _tilt_rows(probs: np.ndarray, w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row i is p tilted by ts[i]: proportional to p * exp(ts[i] * w).

    This is the pattern-mixture tilt: it adds t*w on the log-odds scale with
    level 1 as baseline, so level 1 needs positive mass. Computed as log p +
    t*w shifted by its row maximum before exponentiating, so no entry
    overflows however large |t*w| grows; levels with p = 0 keep zero mass.
    """
    if probs[0] == 0.0:
        raise ValueError("baseline category empty: p_1 must be positive")
    if len(w) != len(probs):
        raise ValueError(f"mechanism has {len(w)} weights for {len(probs)} levels")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tw = np.multiply.outer(ts, w)
        z = np.log(probs) + tw
        # entries of a row can span more than the float range: -inf, no mass
        z -= z.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(tw)):
        raise ValueError(f"knob values and t*w must be finite, got t in {ts}")
    tilted = np.exp(z, out=z)
    tilted /= tilted.sum(axis=1, keepdims=True)
    return tilted


def impute_theta_grid(pop: LeadPopulation, mech: MnarMechanism, ts,
                      cfg: ImputationConfig):
    """Multiply-imputed fraction above the cutoff at every knob value in ts.

    Each of the M rounds draws level probabilities from the Dirichlet
    posterior, tilts them, imputes all missing units with a single
    multinomial draw (missing units are exchangeable given the tilted
    probabilities), and computes the completed-population fraction above
    the cutoff. Round m uses substream(seed, m) at every t
    (common random numbers): the posterior draw is shared by the whole grid,
    and each multinomial starts from the generator state that follows it.
    Row i therefore depends on ts[i] alone, not on the other knob values or
    their order.

    Returns (thetas, freqs): the mean fraction per knob value, shape (T,),
    and the mean completed frequency vector per knob value, shape (T, K).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"knob values must be a 1-D sequence, got shape {ts.shape}")
    w = mech.as_array()
    observed = pop.counts_array()
    n_missing = pop.n_missing
    theta_sum = np.zeros(len(ts))
    freq_sum = np.zeros((len(ts), pop.k))
    imputed = np.empty((len(ts), pop.k), dtype=np.int64)
    for m in range(cfg.m):
        rng = substream(cfg.seed, m)
        p = draw_dirichlet_posterior(pop, rng)
        p_t = _tilt_rows(p, w, ts)
        bit_generator = rng.bit_generator
        after_posterior = bit_generator.state
        for i, row in enumerate(p_t):
            bit_generator.state = after_posterior
            imputed[i] = rng.multinomial(n_missing, row)
        completed = np.add(imputed, observed, out=imputed)
        theta_sum += completed[:, pop.cutoff_level:].sum(axis=1) / pop.n_total
        freq_sum += completed / pop.n_total
    freqs = freq_sum / cfg.m
    # the float mean of m fractions at the worst case can exceed it by an ulp
    thetas = np.minimum(theta_sum / cfg.m, pop.worst_case_theta)
    return thetas, freqs / freqs.sum(axis=1, keepdims=True)
