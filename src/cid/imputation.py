"""Multiple imputation of missing categorical outcomes under MAR and
log-odds pattern-mixture MNAR mechanisms, with point-estimate combining."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
# numpy.random is a package numpy loads lazily; importing it here keeps that
# cost in import time rather than in the first lead run.
from numpy.random import SeedSequence, default_rng

from .errors import InputError

N_LEVELS = 10
# Cell size of the imputation coupling (impute_theta_grid): a round draws
# every CELL-th order statistic of its imputation uniforms, so it holds
# n_missing // CELL + 1 cells of at most CELL - 1 units each.
CELL = 64
# Most values _quantile_binomial inverts with one table over all k, which
# takes fewer numpy calls; its loop over k is faster for more values (the
# two break even near 450 values on 2 vCPUs).
TABLE_POINTS = 512
# Most missing units a LeadPopulation may have: a round's 2**20 cells at
# this bound peak at 32 MiB, where one uniform per unit would take 512 MiB.
MAX_MISSING = 2**26


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
        # as Python ints, so every count fits in int64 once n_total is checked
        k, n, n_observed = len(self.observed_counts), self.n_total, self.n_observed
        if k < 2:
            raise ValueError("need at least 2 levels")
        if any(c < 0 for c in self.observed_counts):
            raise ValueError("counts must be nonnegative")
        if not 1 <= n <= 2**63 - 1:
            raise InputError("n_total", f"need 1 <= n_total <= 2**63 - 1, got {n}")
        if n_observed > n:
            raise InputError("n_total", f"observed count {n_observed} exceeds "
                                        f"n_total {n}")
        if n - n_observed > MAX_MISSING:
            raise InputError("n_total", f"n_total {n} leaves {n - n_observed:,} "
                                        f"units missing beyond the {n_observed:,} "
                                        f"observed (at most {MAX_MISSING:,})")
        if not (1 <= self.cutoff_level < k):
            raise ValueError(f"need 1 <= cutoff level < number of levels, got "
                             f"cutoff level {self.cutoff_level} for {k} levels")

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
    overflows however large a finite |t*w| grows; levels with p = 0 keep no
    mass. impute_theta_grid rejects a t*w that is not finite.
    """
    if probs[0] == 0.0:
        raise ValueError("baseline category empty: p_1 must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        z = np.log(probs) + np.multiply.outer(ts, w)
        # entries of a row can span more than the float range: -inf, no mass
        z -= z.max(axis=1, keepdims=True)
    tilted = np.exp(z, out=z)
    tilted /= tilted.sum(axis=1, keepdims=True)
    return tilted


def _draw_cells(rng: np.random.Generator, n: int) -> tuple:
    """Every CELL-th order statistic of n iid uniforms, and one uniform per
    cell between them.

    With E_1, ..., E_(n+1) iid standard exponentials, the k-th smallest of n
    uniforms is (E_1 + ... + E_k) / (E_1 + ... + E_(n+1)) (Devroye 1986,
    Non-Uniform Random Variate Generation, ch. V). Sums of CELL exponentials
    are gamma variates of shape CELL, so b = n // CELL of them and one of
    shape n + 1 - CELL*b give the order statistics of ranks CELL, 2*CELL,
    ..., CELL*b. Returns (bounds, u): bounds holds 0, those b order
    statistics and 1, the edges of b + 1 cells, and u[j] is cell j's
    uniform.
    """
    b = n // CELL
    bounds = np.zeros(b + 2)
    rng.standard_gamma(float(CELL), out=bounds[1:-1])
    bounds[-1] = rng.standard_gamma(n + 1 - CELL * b)
    np.cumsum(bounds, out=bounds)
    bounds /= bounds[-1]
    return bounds, rng.random(b + 1)


def _quantile_binomial(n, r, u) -> np.ndarray:
    """The u-quantile of Bin(n[i], r[i]) for each i: the smallest k with
    P(X <= k) >= u, for integers 0 <= n[i] < CELL, r in [0, 1], u in [0, 1).

    The cdf comes from the pmf recurrence. For r > 1/2 it is reflected,
    X = n - Bin(n, 1 - r), so the recurrence starts from (1 - r)^n >= 2^-n
    and never underflows. Up to TABLE_POINTS values are tabulated over all
    k at once; more run the recurrence one k at a time over all of them,
    until the cdf reaches u everywhere.
    """
    n = np.asarray(n, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    flip = r > 0.5
    p = np.where(flip, 1.0 - r, r)
    # P(X <= k) >= u; reflected, P(Y <= n - k - 1) <= 1 - u for Y = n - X,
    # so count the j with P(Y <= j) < nextafter(1 - u)
    level = np.where(flip, np.nextafter(1.0 - u, 2.0), u)
    odds = p / (1.0 - p)
    # pmf(k) / pmf(k - 1) = ((n + 1) / k - 1) odds; both ways below compute
    # it, and the pmf and cdf from it, with the same operations
    scaled = (n + 1) * odds
    pmf = (1.0 - p) ** n
    if len(r) <= TABLE_POINTS:
        table = np.empty((CELL - 1, len(r)))
        table[0] = pmf
        np.divide(scaled, np.arange(1.0, CELL - 1)[:, None], out=table[1:])
        table[1:] -= odds
        cdf = np.cumsum(np.cumprod(table, axis=0, out=table), axis=0,
                        out=table)
        below = np.count_nonzero(cdf < level, axis=0)
    else:
        cdf = pmf.copy()
        below = np.zeros(len(r), dtype=np.int64)
        for k in range(1, CELL):
            short = cdf < level  # P(X <= k - 1) < u
            if not short.any():
                break
            below += short
            pmf *= scaled / k - odds
            cdf += pmf
    # past k = n the pmf is 0 up to rounding far below pmf(n), so a cdf that
    # reached u by n stays there, and one that did not counts n or more
    below = np.minimum(below, n)
    return np.where(flip, n - below, below)


def _count_below(q: np.ndarray, bounds: np.ndarray, u: np.ndarray,
                 n: int) -> np.ndarray:
    """Units at or below each probability q among n uniforms, from their
    cells (_draw_cells): an exact Bin(n, q) draw at every q, nondecreasing
    in q.

    q falls in cell j at fraction r of its width. The CELL*j units at or
    below the cell's lower edge count in full, and the units inside it are
    iid uniform on it given the edges, so their count below q is
    Bin(n_j, r), drawn by inverting the cell's uniform u_j.
    """
    b = len(u) - 1
    # q == 1 lies on the top edge; it belongs to the last cell, at r = 1
    j = np.minimum(np.searchsorted(bounds, q, side="right") - 1, b)
    lo, hi = bounds[j], bounds[j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(q < hi, (q - lo) / (hi - lo), 1.0)
    inside = np.where(j < b, CELL - 1, n - CELL * b)
    return CELL * j + _quantile_binomial(inside, r, u[j])


def _conditional(rng: np.random.Generator, count: int,
                 probs: np.ndarray) -> np.ndarray:
    """Multinomial(count, probs / probs.sum()); zeros when count is 0."""
    if count == 0:
        return np.zeros(len(probs), dtype=np.int64)
    return rng.multinomial(count, probs / probs.sum())


def impute_theta_grid(pop: LeadPopulation, mech: MnarMechanism, ts,
                      cfg: ImputationConfig, rows=()):
    """Multiply-imputed fraction above the cutoff at every knob value in ts,
    and the mean completed frequencies at the grid rows in rows.

    Each of the M rounds draws level probabilities from the Dirichlet
    posterior and tilts them. Missing units are exchangeable given the
    tilted probabilities, so the missing units at or below the cutoff are
    Bin(n_missing, q_t), q_t = P_t(level <= cutoff). Round m draws them
    from substream(seed, m) by one coupling shared by the whole grid: after
    the posterior, the round draws every CELL-th order statistic of
    n_missing imputation uniforms and one uniform per cell between them
    (_draw_cells), and the count at q_t is the number of those uniforms at
    or below q_t (_count_below). That count is exactly Bin(n_missing, q_t)
    and nondecreasing in q_t, so for a mechanism whose weights at or below
    the cutoff all exceed those above it (accordion, parametric) each
    round's fraction, and their mean, is nonincreasing in t. Row i depends
    on ts[i] alone, not on the other knob values or their order.

    For each row in rows, the units below and above the cutoff are spread
    over the levels by two conditional multinomials, drawn from the
    generator state that follows the cells, so the frequencies agree with
    the fraction and do not depend on the other rows either.

    Returns (thetas, freqs): the mean fraction per knob value, shape (T,),
    and the mean completed frequency vector per row in rows, shape (S, K).
    A mechanism without pop.k weights, or with a weight w and a knob value
    t whose t*w is not finite, is an InputError naming weights, raised
    before anything is drawn.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"knob values must be a 1-D sequence, got shape {ts.shape}")
    w = mech.as_array()
    if len(w) != pop.k:
        raise InputError("weights", f"{mech.name} has {len(w)} weights for the "
                                    f"{pop.k} levels")
    # the largest |t * w| is max|t| * max|w|, and rounding is monotone, so
    # this one product is finite exactly when every t * w is, NaN included
    t_far = float(max(ts.min(initial=0.0), ts.max(initial=0.0), key=abs))
    w_far = float(max(w, key=abs))
    if not np.isfinite(t_far * w_far):
        raise InputError("weights", f"weight {w_far!r} times knob value "
                                    f"t = {t_far!r} is not finite")
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if np.any((rows < 0) | (rows >= len(ts))):
        raise ValueError(f"rows must index the {len(ts)} knob values, got "
                         f"{rows.tolist()}")
    n_missing = pop.n_missing
    observed = pop.counts_array()
    cutoff = pop.cutoff_level
    high_if_none_below = pop.observed_high_count + n_missing
    theta_sum = np.zeros(len(ts))
    freq_sum = np.zeros((len(rows), pop.k))
    for m in range(cfg.m):
        rng = substream(cfg.seed, m)
        p = draw_dirichlet_posterior(pop, rng)
        p_t = _tilt_rows(p, w, ts)
        low = p_t[:, :cutoff].sum(axis=1)
        # exactly 0 or 1 when all the tilted mass is on one side
        q = low / (low + p_t[:, cutoff:].sum(axis=1))
        below = _count_below(q, *_draw_cells(rng, n_missing), n_missing)
        theta_sum += (high_if_none_below - below) / pop.n_total
        bit_generator = rng.bit_generator
        after_cells = bit_generator.state
        for s, row in enumerate(rows.tolist()):
            bit_generator.state = after_cells
            n_low = int(below[row])
            imputed = np.concatenate((
                _conditional(rng, n_low, p_t[row, :cutoff]),
                _conditional(rng, n_missing - n_low, p_t[row, cutoff:])))
            freq_sum[s] += (observed + imputed) / pop.n_total
    freqs = freq_sum / cfg.m
    # the float mean of m fractions at the worst case can exceed it by an ulp
    thetas = np.minimum(theta_sum / cfg.m, pop.worst_case_theta)
    return thetas, freqs / freqs.sum(axis=1, keepdims=True)
