"""Multiple imputation of missing categorical outcomes under MAR and
log-odds pattern-mixture MNAR mechanisms, with point-estimate combining."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .streams import UNIFORMS, Stream, key
from .textcols import read_columns

N_LEVELS = 10
# Cell size of the imputation coupling (impute_theta_grid): a round draws
# every CELL-th order statistic of its imputation uniforms, so it holds
# n_missing // CELL + 1 cells of at most CELL - 1 units each.
CELL = 64
# Most values impute_theta_grid inverts in one _quantile_binomial call, and
# most knob values a round tilts at once. The inversion's float64 arrays
# then hold textcols.BLOCK_BYTES (64 KiB) each, below glibc's 128 KiB mmap
# threshold, so they reuse freed memory however fine the grid.
BATCH = 2**13
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
    """Per-level counts from a `level,count` CSV covering levels 1..K
    (textcols.read_columns)."""
    rows = sorted((int(level), int(count))
                  for level, count in read_columns(path, ("level", "count")))
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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def substream(seed: int, m: int) -> Stream:
    """The variates of imputation round m: a counter-based stream keyed by
    seed and m alone (cid.streams), so results do not depend on evaluation
    order, and every variate is a pure function of (seed, m, family,
    index)."""
    return Stream(key(seed, m))


def _tilt_levels(probs: np.ndarray, w: np.ndarray,
                 ts: np.ndarray) -> np.ndarray:
    """Column i is p tilted by ts[i] up to a positive factor: proportional to
    p * exp(ts[i] * w), with levels along axis 0.

    This is the pattern-mixture tilt: it adds t*w on the log-odds scale with
    level 1 as baseline, so level 1 needs positive mass. Computed as log p +
    t*w shifted by its column maximum before exponentiating, so no entry
    overflows however large a finite |t*w| grows; levels with p = 0 keep no
    mass. impute_theta_grid rejects a t*w that is not finite.

    The tilt ignores a constant c added to every weight, so t*w is taken as
    t*(w - max w) for t > 0 and t*(w - min w) otherwise: bit for bit the
    same for w + c wherever w + c is exact, where t*w + log p rounds log p
    away once |t*c| is large. Weights spanning more than the float range
    are halved first, and the products doubled after, both exactly, so
    that their differences stay finite.
    """
    if probs[0] == 0.0:
        raise ValueError("baseline category empty: p_1 must be positive")
    lo, hi = float(w.min()), float(w.max())
    scale = 1.0 if hi - lo < np.inf else 0.5
    with np.errstate(divide="ignore", over="ignore"):
        z = np.subtract.outer(w * scale,
                              np.where(ts > 0, hi * scale, lo * scale))
        z *= ts
        if scale != 1.0:
            z /= scale
        z += np.log(probs)[:, None]
        # entries of a column can span more than the float range: -inf, no mass
        z -= z.max(axis=0)
    return np.exp(z, out=z)


def _cell_shapes(n: int) -> np.ndarray:
    """The gamma shapes of the cells of n uniforms (_draw_round): b = n //
    CELL of shape CELL, then one of shape n + 1 - CELL*b."""
    b = n // CELL
    shapes = np.full(b + 1, float(CELL))
    shapes[-1] = n + 1 - CELL * b
    return shapes


def _draw_round(rng: Stream, shapes: np.ndarray, k: int) -> tuple:
    """One round's posterior draw p and the cell edges of its imputation
    uniforms, from one gamma call: shapes holds the k posterior shapes, then
    the cell shapes (_cell_shapes), whose gammas follow the posterior ones,
    at indices k, k + 1, .... With posterior shapes 1 + n_1, ..., 1 + n_K
    (a flat prior), the normalized first k gammas are a draw from the
    Dirichlet posterior Dirichlet(1 + n_1, ..., 1 + n_K).

    With E_1, ..., E_(n+1) iid standard exponentials, the k-th smallest of n
    uniforms is (E_1 + ... + E_k) / (E_1 + ... + E_(n+1)) (Devroye 1986,
    Non-Uniform Random Variate Generation, ch. V). Sums of CELL exponentials
    are gamma variates of shape CELL, so b = n // CELL of them and one of
    shape n + 1 - CELL*b give the order statistics of ranks CELL, 2*CELL,
    ..., CELL*b. Returns (p, bounds): bounds holds 0, those b order
    statistics and 1, the edges of b + 1 cells.
    """
    g = rng.gammas(shapes)
    bounds = np.empty(len(shapes) - k + 1)
    bounds[0] = 0.0
    np.cumsum(g[k:], out=bounds[1:])
    bounds /= bounds[-1]
    return g[:k] / g[:k].sum(), bounds


def _quantile_binomial(n, r, u) -> np.ndarray:
    """The u-quantile of Bin(n[i], r[i]) for each i: the smallest k with
    P(X <= k) >= u, for integers 0 <= n[i] < CELL, r in [0, 1], u in [0, 1).

    The cdf comes from the pmf recurrence. For r > 1/2 it is reflected,
    X = n - Bin(n, 1 - r), so the recurrence starts from (1 - r)^n >= 2^-n
    and never underflows. It runs one k at a time over the values whose cdf
    is still below u; once fewer than half of them are, over those alone.
    """
    n = np.asarray(n)
    r, u = np.asarray(r, dtype=float), np.asarray(u, dtype=float)
    flip = r > 0.5
    p = np.minimum(r, 1.0 - r)
    # P(X <= k) >= u; reflected, P(Y <= n - k - 1) <= 1 - u for Y = n - X,
    # so count the j with P(Y <= j) < nextafter(1 - u, 2). That float is the
    # one whose bit pattern follows 1 - u's, as 1 - u > 0; np.nextafter
    # takes several times as long.
    level = 1.0 - u
    level.view(np.int64)[...] += 1
    level = np.where(flip, level, u)
    # in place where p and 1 - p are not needed again: a batch can be large
    not_p = 1.0 - p
    odds = np.divide(p, not_p, out=p)
    # pmf(k) / pmf(k - 1) = ((n + 1) / k - 1) odds
    scaled = (n + 1) * odds
    pmf = np.power(not_p, n, out=not_p)
    cdf = pmf.copy()
    # how many passes found the cdf short of u, fewer than CELL: kept in
    # bytes, so that a pass adds its comparison, viewed as bytes, uncast
    below = np.zeros(len(r), dtype=np.uint8)
    counts, active = below, None
    step = np.empty_like(pmf)
    for k in range(1, CELL):
        short = cdf < level  # P(X <= k - 1) < u
        left = np.count_nonzero(short)
        if not left:
            break
        if active is None and 2 * left < len(short):
            # the values still short, fewer than half, run on alone
            active = np.flatnonzero(short)
            level, odds, scaled, pmf, cdf = (
                a[active] for a in (level, odds, scaled, pmf, cdf))
            counts, short, step = below[active], short[active], step[:left]
        counts += short.view(np.uint8)
        np.divide(scaled, k, out=step)
        step -= odds
        pmf *= step
        cdf += pmf
    if active is not None:
        below[active] = counts
    # past k = n the pmf is 0 up to rounding far below pmf(n), so a cdf that
    # reached u by n stays there, and one that did not counts n or more
    below = np.minimum(below, n)
    return np.where(flip, n - below, below)


def _cell_fields(q: np.ndarray, bounds: np.ndarray, rng: Stream,
                 n: int) -> tuple:
    """Where each probability q falls among n uniforms' cells (_draw_round):
    (j, inside, r, u_j). The units at or below q are then the CELL*j units
    at or below the lower edge of q's cell j plus _quantile_binomial(inside,
    r, u_j): an exact Bin(n, q) draw at every q, nondecreasing in q.

    q lies at fraction r of the width of cell j, which holds inside units.
    They are iid uniform on the cell given its edges, so their count below
    q is Bin(inside, r), drawn by inverting the cell's uniform u_j, the
    uniform at index j of rng's UNIFORMS family.
    """
    b = len(bounds) - 2
    # q == 1 lies on the top edge; it belongs to the last cell, at r = 1
    j = np.minimum(np.searchsorted(bounds, q, side="right") - 1, b)
    lo, hi = bounds[j], bounds[j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(q < hi, (q - lo) / (hi - lo), 1.0)
    # as bytes, since fewer than CELL: a batch holds many
    inside = np.where(j < b, np.uint8(CELL - 1), np.uint8(n - CELL * b))
    return j, inside, r, rng.random(UNIFORMS, j)


def _low_share(tilted: np.ndarray, cutoff: int) -> np.ndarray:
    """q_t = P_t(level <= cutoff) at each knob value t, from its column of
    _tilt_levels: a ratio, so the columns need no normalizing. Exactly 0 or
    1 when all the tilted mass is on one side."""
    low = tilted[:cutoff].sum(axis=0)
    return low / (low + tilted[cutoff:].sum(axis=0))


def _completed_freqs(pop: LeadPopulation, tilted: np.ndarray,
                     below: np.ndarray) -> np.ndarray:
    """One round's completed frequencies at each snapshot, as their
    expectation given the round's tilted rows tilted[s] and the below[s]
    missing units at or below the cutoff: those units spread over the levels
    at or below it in proportion to tilted[s], and the rest over the levels
    above it likewise."""
    cutoff, n = pop.cutoff_level, pop.n_missing
    imputed = np.empty_like(tilted)
    for side, count in ((slice(None, cutoff), below),
                        (slice(cutoff, None), n - below)):
        probs = tilted[:, side]
        # a side without units has no share, and possibly no mass
        share = np.divide(count, probs.sum(axis=1), out=np.zeros(len(count)),
                          where=count > 0)
        np.multiply(probs, share[:, None], out=imputed[:, side])
    return (pop.counts_array() + imputed) / pop.n_total


def impute_theta_grid(pop: LeadPopulation, mech: MnarMechanism, ts,
                      cfg: ImputationConfig, rows=()):
    """Multiply-imputed fraction above the cutoff at every knob value in ts,
    and the mean completed frequencies at the grid rows in rows.

    Each of the M rounds draws level probabilities from the Dirichlet
    posterior and tilts them. Missing units are exchangeable given the
    tilted probabilities, so the missing units at or below the cutoff are
    Bin(n_missing, q_t), q_t = P_t(level <= cutoff). Round m draws them
    from substream(seed, m) by one coupling shared by the whole grid: with
    the posterior, the round draws every CELL-th order statistic of
    n_missing imputation uniforms (_draw_round), and the count at q_t is the
    number of those uniforms at or below q_t, found from one uniform of the
    cell holding q_t (_cell_fields). That count is exactly Bin(n_missing, q_t)
    and nondecreasing in q_t, so for a mechanism whose weights at or below
    the cutoff all exceed those above it (accordion, parametric) each
    round's fraction, and their mean, is nonincreasing in t. Row i depends
    on ts[i] alone, not on the other knob values or their order.

    A round tilts its knob values at most BATCH at a time; the cell fields
    of such slices wait, in round order, until the next slice would take
    them past BATCH values, and are then inverted in one _quantile_binomial
    call. So the work held at once is O(BATCH) however fine the grid,
    besides each round's posterior draw and counts at the S rows, O(M(K+S)).

    For each row in rows, a round's completed frequencies are their
    expectation given its posterior draw and its count at or below the
    cutoff (_completed_freqs): that count spread over the levels at or below
    the cutoff in proportion to the tilted posterior, and the rest over the
    levels above it, tilted again once every count is in. They draw nothing,
    so they agree with the fraction and do not depend on the other rows
    either, and their mean has the expectation a multinomial spread gives.

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
    n, cutoff = pop.n_missing, pop.cutoff_level
    shapes = np.concatenate((1.0 + pop.counts_array(), _cell_shapes(n)))
    high_if_none_below = pop.observed_high_count + n
    theta_sum = np.zeros(len(ts))
    # each round's posterior draw, and its counts below at the rows
    posteriors = np.empty((cfg.m, pop.k))
    below_rows = np.empty((cfg.m, len(rows)), dtype=np.int64)
    # slices awaiting inversion: (round, start, stop), cell fields, values
    heads, parts, size = [], [], 0

    def invert():
        j, inside, r, u = map(np.concatenate, zip(*parts))
        parts.clear()  # the joined copies alone stay through the inversion
        below = _quantile_binomial(inside, r, u) + CELL * j
        for m, start, stop in heads:
            here, below = below[:stop - start], below[stop - start:]
            theta_sum[start:stop] += (high_if_none_below - here) / pop.n_total
            at = (start <= rows) & (rows < stop)
            below_rows[m, at] = here[rows[at] - start]
        heads.clear()

    for m in range(cfg.m):
        rng = substream(cfg.seed, m)
        posteriors[m], bounds = _draw_round(rng, shapes, pop.k)
        for start in range(0, len(ts), BATCH):
            stop = min(start + BATCH, len(ts))
            if size + stop - start > BATCH:
                invert()
                size = 0
            tilted = _tilt_levels(posteriors[m], w, ts[start:stop])
            heads.append((m, start, stop))
            parts.append(_cell_fields(_low_share(tilted, cutoff), bounds, rng, n))
            size += stop - start
            del tilted  # not held through the next inversion or draw
    if heads:
        invert()
    freq_sum = np.zeros((len(rows), pop.k))
    for p, below in zip(posteriors, below_rows):
        # C order, so numpy adds a row's levels in one order for any S
        tilted = _tilt_levels(p, w, ts[rows]).T.copy()
        freq_sum += _completed_freqs(pop, tilted, below)
    freqs = freq_sum / cfg.m
    # the float mean of m fractions at the worst case can exceed it by an ulp
    thetas = np.minimum(theta_sum / cfg.m, pop.worst_case_theta)
    return thetas, freqs / freqs.sum(axis=1, keepdims=True)
