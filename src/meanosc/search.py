"""Global supremum searches over subintervals, arcs, and long arcs.

The quantities searched for (oscillation seminorms, weight constants) are
defined as suprema over all subintervals of the carrier.  The supremum is
generally *not* attained at breakpoint pairs, so the candidate set combines
three layers: all breakpoint pairs, a nested dyadic grid inside every cell
pair, and golden-section coordinate refinement of the leading candidates.
Nesting the grids dyadically makes the reported lower bound monotone under
enlargement of the grid or refinement budget.

Every search enters through ``_search``.  Flat step functions, and DAGs of
at most ``_FLAT_LIMIT`` pieces once materialized, are evaluated in
vectorized chunks through exact overlap matrices.  Larger construction
DAGs use a structure-aware strategy: intervals inside a single copy are
affine images of child intervals, so child searches recurse and their
witnesses embed through a representative copy; boundary-straddling
intervals are scanned around each junction type on a logarithmic length
grid; arcs covering at least ``r_long`` whole periods have distributions
within total variation ``2 / (r_long + 1)`` of the node distribution,
which caps their values provably.

DAG arcs are evaluated a batch at a time through ``construct.query_batch``:
the junction grids of a node are one query, the golden refinement of all
its junction leaders runs in lockstep with one query per step, and the
long-arc grid is one query; full arcs and embedded child witnesses are
single queries.  Offers replay junction by junction in the order a
junction-at-a-time scan makes them, so the batching changes no witness
choice.

When ``certify`` is set, reports carry an upper bound next to the lower
bound.  For flat interval functions it is the per-cell-pair value-range
bound.  For circle targets it is the maximum evaluated raw functional
(including the node-distribution asymptote) plus a crude-but-sound total
variation perturbation term; its coverage of sub-``r_long`` arcs rests on
the density of the junction scans, which is why certified results are
reported as brackets rather than bare values.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .construct import (
    ConstExpr,
    ConstructExpr,
    GlueExpr,
    HomExpr,
    LeafExpr,
    PeriodizeExpr,
    materialize,
    query as dag_query,
    query_batch,
    required_pieces,
)
from .distributions import DiscreteDistribution
from .errors import InputError
from .stepfun import IntervalQuery, StepFunction, as_query

__all__ = [
    "SearchConfig",
    "SearchReport",
    "bmo_norm",
    "circle_bmo_norm",
    "ap_constant",
    "a_inf_constant",
    "weak_distribution",
    "exp_integral",
    "reverse_holder_ratio",
]

_FLAT_LIMIT = 600  # piece count up to which DAG targets are searched flat
_CHUNK_BUDGET = 2_000_000  # floats per overlap-matrix chunk
_REFINE_TOP = 32  # leading candidates refined per block of the pair scan


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the supremum searches.

    ``grid_points`` controls the dyadic grid level inside each cell pair
    (rounded up to the next dyadic level so grids nest); ``refine_iters``
    is the golden-section budget per refined coordinate; ``r_long`` the
    copy-count threshold of the long-arc regime; ``max_periods`` the
    largest scanned arc length in periods; ``certify`` attaches an upper
    bound to each report; ``threads`` the worker count of the pair scan.
    """

    grid_points: int = 3
    refine_iters: int = 40
    r_long: int = 64
    max_periods: int = 256
    certify: bool = False
    threads: int = 1

    def __post_init__(self):
        for name in ("grid_points", "refine_iters", "r_long", "max_periods", "threads"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")

    @property
    def dyadic_level(self) -> int:
        return max(1, math.ceil(math.log2(self.grid_points + 1)))

    def to_dict(self) -> dict:
        return {
            "grid_points": self.grid_points,
            "refine_iters": self.refine_iters,
            "r_long": self.r_long,
            "max_periods": self.max_periods,
            "certify": self.certify,
            "threads": self.threads,
        }


@dataclass
class SearchReport:
    """Outcome of a supremum search: a bracket, a witness, and telemetry."""

    lower: float
    witness: IntervalQuery
    evaluations: int
    config: SearchConfig
    upper: float | None = None
    scan: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "witness": self.witness.to_dict(),
            "evaluations": self.evaluations,
            "config": self.config.to_dict(),
        }


# -- objectives -----------------------------------------------------------------


def _abs_power(diff: np.ndarray, p: float) -> np.ndarray:
    # fast paths: float powers are an order of magnitude slower than these
    if p == 1.0:
        return np.abs(diff)
    if p == 2.0:
        return diff * diff
    if p == float(int(p)) and p <= 8:
        out = np.abs(diff)
        acc = out.copy()
        for _ in range(int(p) - 1):
            acc *= out
        return acc
    return np.abs(diff) ** p


class _Objective:
    """A supremum functional: raw value per interval plus a report transform."""

    name = "abstract"
    requires_positive = False
    translation_invariant = False

    def raw_from_parts(self, ov: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prefix_transforms(self):
        """Value transforms whose interval means determine the functional.

        Returns None when the functional is not mean-decomposable and the
        overlap-matrix path must be used.
        """
        return None

    def raw_from_means(self, means: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def raw_from_dist(self, d: DiscreteDistribution) -> float:
        raise NotImplementedError

    def raw_from_weights(self, w: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Raw functional of each row of probability weights ``w`` over the atoms ``values``.

        Row sums run through ``einsum``, never BLAS, so a row's value does
        not depend on the other rows of the batch.
        """
        raise NotImplementedError

    def value_from_raw(self, raw):
        return raw

    def raw_of_value(self, value: float) -> float:
        return value

    def range_bound(self, vmin: float, vmax: float) -> float:
        """Sound bound on the reported value from the value range alone."""
        raise NotImplementedError

    def tv_slack(self, vmin: float, vmax: float, tv: float) -> float:
        """Sound bound on the raw-value change under a TV perturbation."""
        raise NotImplementedError


class _BmoObjective(_Objective):
    translation_invariant = True

    def __init__(self, p: float):
        if p < 1:
            raise InputError(f"oscillation order p must be >= 1, got {p}")
        self.p = float(p)
        self.name = f"bmo_{p:g}"

    def raw_from_parts(self, ov, values, lengths):
        m = (ov @ values) / lengths
        return np.einsum("ij,ij->i", ov, _abs_power(values[None, :] - m[:, None], self.p)) / lengths

    def prefix_transforms(self):
        if self.p == 2.0:
            return [lambda v: v, lambda v: v * v]
        return None

    def raw_from_means(self, means):
        m1, m2 = means
        return np.maximum(m2 - m1 * m1, 0.0)

    def raw_from_dist(self, d):
        return d.central_moment(self.p)

    def raw_from_weights(self, w, values):
        m = np.einsum("ij,j->i", w, values)
        return np.einsum("ij,ij->i", w, _abs_power(values[None, :] - m[:, None], self.p))

    def value_from_raw(self, raw):
        return raw ** (1.0 / self.p)

    def raw_of_value(self, value):
        return value**self.p

    def range_bound(self, vmin, vmax):
        return vmax - vmin

    def tv_slack(self, vmin, vmax, tv):
        return tv * 2.0 ** (self.p + 1.0) * (vmax - vmin) ** self.p


class _ApObjective(_Objective):
    requires_positive = True

    def __init__(self, p: float):
        if p <= 1:
            raise InputError(f"weight exponent p must be > 1, got {p}")
        self.p = float(p)
        self.name = f"ap_{p:g}"

    def raw_from_parts(self, ov, values, lengths):
        a = (ov @ values) / lengths
        b = (ov @ values ** (-1.0 / (self.p - 1.0))) / lengths
        return a * b ** (self.p - 1.0)

    def prefix_transforms(self):
        s = -1.0 / (self.p - 1.0)
        return [lambda v: v, lambda v: v**s]

    def raw_from_means(self, means):
        a, b = means
        if self.p == 2.0:
            return a * b
        return a * b ** (self.p - 1.0)

    def raw_from_dist(self, d):
        return d.ap_form(self.p)

    def raw_from_weights(self, w, values):
        a = np.einsum("ij,j->i", w, values)
        b = np.einsum("ij,j->i", w, values ** (-1.0 / (self.p - 1.0)))
        return a * b ** (self.p - 1.0)

    def range_bound(self, vmin, vmax):
        return vmax / vmin

    def tv_slack(self, vmin, vmax, tv):
        ratio = vmax / vmin
        return 2.0 * self.p * tv * ratio ** max(1.0, 1.0 / (self.p - 1.0))


class _AInfObjective(_Objective):
    requires_positive = True
    name = "a_inf"

    def raw_from_parts(self, ov, values, lengths):
        a = (ov @ values) / lengths
        g = (ov @ np.log(values)) / lengths
        return a * np.exp(-g)

    def prefix_transforms(self):
        return [lambda v: v, np.log]

    def raw_from_means(self, means):
        a, g = means
        return a * np.exp(-g)

    def raw_from_dist(self, d):
        return d.geometric_form()

    def raw_from_weights(self, w, values):
        a = np.einsum("ij,j->i", w, values)
        g = np.einsum("ij,j->i", w, np.log(values))
        return a * np.exp(-g)

    def range_bound(self, vmin, vmax):
        return vmax / vmin

    def tv_slack(self, vmin, vmax, tv):
        biglog = max(abs(math.log(vmin)), abs(math.log(vmax)))
        return 2.0 * tv * (vmax / vmin) * (1.0 + biglog)


# -- candidate bookkeeping ---------------------------------------------------------


class _Best:
    """Deterministic max with lexicographic (left, length) tie-breaking.

    Values within a relative 1e-12 of the running maximum count as ties, so
    one-ulp evaluation noise cannot displace a structurally cleaner witness;
    the reported lower bound is still the exact maximum seen.
    """

    __slots__ = ("value", "left", "right", "wv", "wl", "wr")

    def __init__(self):
        self.value = -math.inf
        self.left = math.nan
        self.right = math.nan
        self.wv = -math.inf
        self.wl = math.nan
        self.wr = math.nan

    def _tol(self) -> float:
        return 1e-12 * max(1.0, abs(self.value))

    def offer(self, value: float, left: float, right: float):
        if value > self.value:
            self.value, self.left, self.right = value, left, right
            if self.wv < self.value - self._tol():
                self.wv, self.wl, self.wr = value, left, right
                return
        if value >= self.value - self._tol():
            if (
                math.isnan(self.wl)
                or left < self.wl
                or (left == self.wl and right - left < self.wr - self.wl)
            ):
                self.wv, self.wl, self.wr = value, left, right

    def offer_array(self, values: np.ndarray, lefts: np.ndarray, rights: np.ndarray):
        if values.size == 0:
            return
        vmax = float(values.max())
        if vmax < self.value - self._tol():
            return
        j = int(np.argmax(values))
        self.offer(vmax, float(lefts[j]), float(rights[j]))
        idx = np.flatnonzero(values >= self.value - self._tol())
        if idx.size:
            ls = lefts[idx]
            lens = rights[idx] - ls
            order = np.lexsort((lens, ls))
            k = idx[order[0]]
            self.offer(float(values[k]), float(lefts[k]), float(rights[k]))

    def finish(self):
        """Resolve the final witness; the exact maximum stays the bound."""
        if self.wv >= self.value - self._tol() and not math.isnan(self.wl):
            return self.wl, self.wr, self.wv
        return self.left, self.right, self.value


def _golden_max(f, lo, hi, iters: int):
    """Golden-section ascent on the brackets ``[lo[k], hi[k]]`` in lockstep.

    ``f`` maps an array holding one probe per lane to their values.  Every
    lane takes exactly the steps a one-lane run would take, so lanes never
    influence each other; each lane costs ``max(iters, 2)`` probes.
    Returns the best probe and value of every lane.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    up = fc >= fd
    best_x, best_v = np.where(up, c, d), np.where(up, fc, fd)
    for _ in range(max(iters - 2, 0)):
        # lanes with fc >= fd keep [a, d] and probe a new c; the rest keep
        # [c, b] and probe a new d
        a, b = np.where(up, a, c), np.where(up, d, b)
        x = np.where(up, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        keep, fkeep = np.where(up, c, d), np.where(up, fc, fd)
        c, fc = np.where(up, x, keep), np.where(up, fx, fkeep)
        d, fd = np.where(up, keep, x), np.where(up, fkeep, fx)
        up = fc >= fd
        x, v = np.where(up, c, d), np.where(up, fc, fd)
        better = v > best_v
        best_x, best_v = np.where(better, x, best_x), np.where(better, v, best_v)
    return best_x, best_v


# -- flat-function engine -----------------------------------------------------------


class _FlatTarget:
    """An interval step function prepared for chunked candidate evaluation.

    Mean-decomposable functionals evaluate through exact piecewise-linear
    antiderivatives of the needed value transforms (O(log n) per
    candidate); the rest go through exact overlap matrices.
    """

    def __init__(self, f: StepFunction, objective: _Objective):
        self.f = f
        self.bp = f.breakpoints
        self.values = f.values
        if objective.translation_invariant:
            # centering costs nothing and avoids cancellation when the
            # mean dwarfs the oscillation
            lens = np.diff(self.bp)
            self.values = self.values - np.dot(lens, self.values) / lens.sum()
        self.objective = objective
        self.evaluations = 0
        transforms = objective.prefix_transforms()
        if transforms is None:
            self._tvals = None
        else:
            lens = np.diff(self.bp)
            self._tvals = [g(self.values) for g in transforms]
            self._prefix = [
                np.concatenate(([0.0], np.cumsum(tv * lens))) for tv in self._tvals
            ]

    def _antideriv(self, x: np.ndarray, t: int) -> np.ndarray:
        i = np.clip(np.searchsorted(self.bp, x, side="right") - 1, 0, self.values.size - 1)
        return self._prefix[t][i] + (x - self.bp[i]) * self._tvals[t][i]

    def _overlap_raw(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        lo = np.maximum(lefts[:, None], self.bp[None, :-1])
        hi = np.minimum(rights[:, None], self.bp[None, 1:])
        ov = np.maximum(hi - lo, 0.0)
        return self.objective.raw_from_parts(ov, self.values, rights - lefts)

    @property
    def _short_cutoff(self) -> float:
        # antiderivative differences cancel catastrophically on short
        # intervals; those route through exact local overlaps instead
        return 1e-2 * (self.bp[-1] - self.bp[0])

    def value_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        lengths = rights - lefts
        if self._tvals is None:
            return self.objective.value_from_raw(self._overlap_raw(lefts, rights))
        means = [
            (self._antideriv(rights, t) - self._antideriv(lefts, t)) / lengths
            for t in range(len(self._tvals))
        ]
        raw = np.asarray(self.objective.raw_from_means(means), dtype=float)
        short = lengths < self._short_cutoff
        if np.any(short):
            raw[short] = self._overlap_raw(lefts[short], rights[short])
        return self.objective.value_from_raw(raw)


def _candidate_points(f: StepFunction, level: int) -> np.ndarray:
    offsets = np.arange(1, 2**level) / 2.0**level
    interior = (f.breakpoints[:-1, None] + np.diff(f.breakpoints)[:, None] * offsets[None, :]).ravel()
    return np.unique(np.concatenate((f.breakpoints, interior)))


def _straddle_candidates(f: StepFunction, level: int):
    """Short intervals straddling each interior breakpoint.

    Half-jump suprema are attained only in the zero-width limit of
    breakpoint-straddling intervals, which cell-pair grids approach far too
    slowly; a geometric ladder of straddle widths reaches them directly.
    """
    bp = f.breakpoints
    lens = np.diff(bp)
    if bp.size <= 2:
        return np.empty(0), np.empty(0)
    hmin = np.minimum(lens[:-1], lens[1:])
    scales = 10.0 ** -np.arange(1, 8)
    offsets = np.arange(1, 2**level) / 2.0**level
    centers = bp[1:-1][:, None, None]
    widths = (hmin[:, None, None]) * scales[None, :, None]
    u = offsets[None, None, :]
    lefts = (centers - u * widths).ravel()
    rights = (centers + (1.0 - u) * widths).ravel()
    return lefts, rights


def _chunked_pair_scan(target: _FlatTarget, points: np.ndarray, cfg: SearchConfig, best: _Best, collect: list | None):
    n = points.size
    ii, jj = np.triu_indices(n, k=1)
    sl, sr = _straddle_candidates(target.f, cfg.dyadic_level)
    lefts = np.concatenate((points[ii], sl))
    rights = np.concatenate((points[jj], sr))
    chunk = max(1, _CHUNK_BUDGET // max(target.values.size, 1))
    spans = [(s, min(s + chunk, lefts.size)) for s in range(0, lefts.size, chunk)]

    def run(span):
        s, e = span
        return target.value_batch(lefts[s:e], rights[s:e])

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run, spans))
    else:
        results = [run(sp) for sp in spans]
    target.evaluations += lefts.size
    for (s, e), vals in zip(spans, results):
        best.offer_array(vals, lefts[s:e], rights[s:e])
        if collect is not None:
            collect.append(np.column_stack((lefts[s:e], rights[s:e], rights[s:e] - lefts[s:e], vals)))
    if results:
        allvals = np.concatenate(results)
        # stratified leaders: pair candidates and straddle candidates each
        # contribute their own top block, so half-jump optima always refine
        n_pairs = ii.size
        leaders: list[int] = []
        for block in (np.arange(n_pairs), np.arange(n_pairs, allvals.size)):
            if block.size == 0:
                continue
            k = min(_REFINE_TOP, block.size)
            top = block[np.argpartition(allvals[block], -k)[-k:]]
            leaders.extend(int(t) for t in top)
        idx = np.array(leaders, dtype=int)
        _refine_leaders(target, lefts[idx], rights[idx], cfg, best)


def _refine_leaders(target: _FlatTarget, lefts, rights, cfg: SearchConfig, best: _Best):
    """Three rounds of left-then-right golden coordinate ascent, all leaders in lockstep.

    Each end moves inside its own cell; a leader whose cell leaves no room
    (``hi <= lo``) sits that step out.
    """
    bp = target.bp
    eps = 1e-12 * (bp[-1] - bp[0])
    last = bp.size - 2
    l, r = np.array(lefts, dtype=float), np.array(rights, dtype=float)
    offers = []

    def probe(ls, rs):
        target.evaluations += ls.size
        return target.value_batch(ls, rs)

    for step in range(0, 6, 2):
        i = np.clip(np.searchsorted(bp, l, side="right") - 1, 0, last)
        lo, hi = bp[i], np.minimum(bp[i + 1], r - eps)
        lanes = np.flatnonzero(hi > lo)
        if lanes.size:
            rs = r[lanes]
            l[lanes], v = _golden_max(lambda x: probe(x, rs), lo[lanes], hi[lanes], cfg.refine_iters)
            offers.extend(zip(lanes.tolist(), [step] * lanes.size, v.tolist(), l[lanes].tolist(), rs.tolist()))
        j = np.clip(np.searchsorted(bp, r, side="left") - 1, 0, last)
        lo, hi = np.maximum(bp[j], l + eps), bp[j + 1]
        lanes = np.flatnonzero(hi > lo)
        if lanes.size:
            ls = l[lanes]
            r[lanes], v = _golden_max(lambda x: probe(ls, x), lo[lanes], hi[lanes], cfg.refine_iters)
            offers.extend(zip(lanes.tolist(), [step + 1] * lanes.size, v.tolist(), ls.tolist(), r[lanes].tolist()))
    # _Best's tie tolerance follows the running maximum, so results are
    # offered leader by leader, each leader's steps in order
    offers.sort(key=lambda o: o[:2])
    for _, _, v, wl, wr in offers:
        best.offer(v, wl, wr)


def _flat_interval_search(f: StepFunction, objective: _Objective, cfg: SearchConfig, collect_scan: bool):
    target = _FlatTarget(f, objective)
    best = _Best()
    collect: list | None = [] if collect_scan else None
    points = _candidate_points(f, cfg.dyadic_level)
    _chunked_pair_scan(target, points, cfg, best, collect)
    upper = None
    if cfg.certify:
        upper = max(
            objective.range_bound(float(f.values.min()), float(f.values.max())),
            best.value,
        )
    scan = [tuple(row) for row in np.concatenate(collect)] if collect else []
    return best, target.evaluations, upper, scan


# -- circle targets -----------------------------------------------------------------


def _geom_lengths(lo: float, hi: float, per_octave: int) -> np.ndarray:
    lo = max(lo, 1e-300)
    if hi <= lo:
        return np.array([hi])
    count = max(2, int(math.ceil(per_octave * math.log2(hi / lo))) + 1)
    return np.geomspace(lo, hi, count)


def _long_arc_scan(raw_at, t0: float, objective: _Objective, cfg: SearchConfig, best: _Best) -> float:
    """Offer arcs of 2 to ``max_periods`` periods, starting at ``t0`` plus dyadic offsets.

    ``raw_at(ls, rs)`` returns the raw functional of every arc ``[ls[i], rs[i]]``;
    the whole grid is one call.  Returns the largest raw value seen, for
    the certificate.
    """
    lengths = _geom_lengths(2.0, float(cfg.max_periods), max(2, cfg.grid_points))
    offsets = np.arange(0, 2**cfg.dyadic_level) / 2.0**cfg.dyadic_level
    ls = t0 + np.tile(offsets, lengths.size)
    rs = ls + np.repeat(lengths, offsets.size)
    raws = raw_at(ls, rs)
    for raw, l, r in zip(raws.tolist(), ls.tolist(), rs.tolist()):
        best.offer(objective.value_from_raw(raw), l, r)
    return float(raws.max())


def _certificate(objective: _Objective, cfg: SearchConfig, values, period: DiscreteDistribution, raw_max: float, best: _Best):
    """Upper bound from the largest raw value seen, one period's included, plus a TV slack.

    Arcs of at least ``r_long`` periods have distributions within total
    variation ``2 / (r_long + 1)`` of one period.  None unless ``certify``.
    """
    if not cfg.certify:
        return None
    raw_max = max(raw_max, objective.raw_from_dist(period))
    tv = 2.0 / (cfg.r_long + 1.0)
    slack = objective.tv_slack(float(values.min()), float(values.max()), tv)
    return max(objective.value_from_raw(raw_max + slack), best.value)


def _flat_circle_search(f: StepFunction, objective: _Objective, cfg: SearchConfig, collect_scan: bool):
    best = _Best()
    collect: list | None = [] if collect_scan else None
    t0 = float(f.breakpoints[0])
    unrolled = f.restrict((t0, t0 + 2.0))
    flat = _FlatTarget(unrolled, objective)
    points = _candidate_points(unrolled, cfg.dyadic_level)
    _chunked_pair_scan(flat, points, cfg, best, collect)

    def raw_at(ls, rs):
        flat.evaluations += ls.size
        return np.array([objective.raw_from_dist(f.distribution(q)) for q in zip(ls.tolist(), rs.tolist())])

    # the pair-scan maximum is read before the long arcs join it
    raw_max = max(objective.raw_of_value(best.value), _long_arc_scan(raw_at, t0, objective, cfg, best))
    upper = _certificate(objective, cfg, f.values, f.distribution((t0, t0 + 1.0)), raw_max, best)
    scan = [tuple(row) for row in np.concatenate(collect)] if collect else []
    return best, flat.evaluations, upper, scan


# -- construction-DAG targets ----------------------------------------------------------


def _layout(node: ConstructExpr):
    """Full carrier or base period, ``(child, lo, hi)`` copies, ``(junction, shortest length)`` pairs."""
    if isinstance(node, HomExpr):
        a, b = node.carrier
        lam, K = node.lam, node.levels
        cell1 = 0.5 * (1.0 - lam)
        resid = 0.5 * lam**K
        # witnesses embed through the longer of the first and the residual cell
        lo, hi = max(node._cell_bounds(1, 1), node._cell_bounds(1, K + 1), key=lambda cell: cell[1] - cell[0])
        # junction types: center (ratio 1), generic (ratio lam),
        # truncation junction (ratio lam/(1-lam)), and the carrier ends
        junctions = [
            (0.0, cell1 * 1e-3),
            (node._ck(1), cell1 * lam * 1e-3),
            (node._ck(K), min(resid, cell1 * lam ** (K - 1)) * 1e-3),
            (b, resid * 1e-3),
            (a, resid * 1e-3),
        ]
        return (a, b), [(node.child, lo, hi)], junctions
    if isinstance(node, GlueExpr):
        alpha = node.alpha
        resid1 = 0.5 * node.lam**node.levels * alpha
        resid0 = 0.5 * node.lam**node.levels * (1.0 - alpha)
        smallest = min(resid0, resid1)
        copies = [(node.hom1, 0.0, alpha), (node.hom0, alpha, 1.0)]
        return (0.0, 1.0), copies, [(alpha, smallest * 1e-3), (1.0, smallest * 1e-3)]
    if isinstance(node, PeriodizeExpr):
        if isinstance(node.child, HomExpr):
            smallest = 0.5 * node.child.lam**node.child.levels
        else:
            smallest = 1e-3
        return (0.0, 1.0), [(node.child, 0.0, 1.0)], [(1.0, smallest * 1e-3)]
    raise InputError(f"unsupported node kind {node!r}")  # pragma: no cover


class _DagSearch:
    """Structure-aware search over a construction DAG.

    Per node: junction scans around every distinct junction type of the
    node's own structure, long-arc scans for circle nodes, and embedding
    of child witnesses through one representative copy.  Candidates whose
    embedding would collapse below float resolution still contribute to
    the certified raw maximum; only anchored candidates (re-evaluated at
    the node itself) feed the reported lower bound and witness.
    """

    def __init__(self, objective: _Objective, cfg: SearchConfig):
        self.objective = objective
        self.cfg = cfg
        self.evaluations = 0
        self.raw_max = -math.inf
        self._memo: dict[int, tuple[float, tuple[float, float] | None]] = {}

    def raw_at(self, node: ConstructExpr, ls: np.ndarray, rs: np.ndarray) -> np.ndarray:
        """Raw functional of every arc ``[ls[i], rs[i]]`` of ``node``, in one batched query."""
        self.evaluations += ls.size
        masses = query_batch(node, ls, rs).masses
        raw = self.objective.raw_from_weights(masses / masses.sum(axis=1)[:, None], node.atom_values)
        self.raw_max = max(self.raw_max, float(raw.max()))
        return raw

    def value_at(self, node: ConstructExpr, ls: np.ndarray, rs: np.ndarray) -> np.ndarray:
        return self.objective.value_from_raw(self.raw_at(node, ls, rs))

    def _offer_one(self, node: ConstructExpr, l: float, r: float, best: _Best):
        """Offer one arc, through a single query: full arcs and embedded witnesses."""
        self.evaluations += 1
        raw = self.objective.raw_from_dist(dag_query(node, (l, r)).distribution)
        self.raw_max = max(self.raw_max, raw)
        best.offer(self.objective.value_from_raw(raw), l, r)

    def search(self, node: ConstructExpr) -> tuple[float, tuple[float, float] | None]:
        key = id(node)
        if key in self._memo:
            return self._memo[key]
        best = _Best()
        if isinstance(node, ConstExpr):
            self._offer_one(node, *node.carrier, best)
        elif isinstance(node, LeafExpr):
            sub, evals, _, _ = _flat_interval_search(
                node.function, self.objective, replace(self.cfg, certify=False), False
            )
            self.evaluations += evals
            self.raw_max = max(self.raw_max, self.objective.raw_of_value(sub.value))
            best.offer(sub.value, sub.left, sub.right)
        else:
            self._search_copies(node, *_layout(node), best)
        if math.isnan(best.left):
            out = (best.value, None)
        else:
            wl, wr, _ = best.finish()
            out = (best.value, (wl, wr))
        self._memo[key] = out
        return out

    def _search_copies(self, node, full, copies, junctions, best: _Best):
        """Full arc, embedded child witnesses, junction scans, and long arcs on circles."""
        a, b = full
        self._offer_one(node, a, b, best)
        for child, lo, hi in copies:
            child_best, child_wit = self.search(child)
            self.raw_max = max(self.raw_max, self.objective.raw_of_value(child_best))
            self._embed(node, child, child_wit, lo, hi, best)
        clip, scale_hi = (None, 2.0) if node.is_circle else (full, b - a)
        self._junction_scan(node, junctions, scale_hi, best, clip)
        if node.is_circle:
            self.raw_max = max(self.raw_max, self.objective.raw_from_dist(node.distribution()))
            _long_arc_scan(lambda ls, rs: self.raw_at(node, ls, rs), 0.0, self.objective, self.cfg, best)

    def _embed(self, node, child, witness, lo: float, hi: float, best: _Best):
        """Map a child witness through the copy occupying [lo, hi] of node."""
        if witness is None:
            return
        a, b = witness
        A, B = child.content_bounds()
        if child.is_circle:
            # fold the arc into the one-period window the copy exposes
            if b - a >= B - A:
                a, b = A, B
            else:
                k = math.ceil(b - B)
                if k > a - A:
                    return
                a, b = a - k, b - k
        scale = (hi - lo) / (B - A)
        wl = lo + (a - A) * scale
        wr = lo + (b - A) * scale
        span = 1.0 + abs(wl) + abs(wr)
        if wr - wl > 1e-12 * span:
            self._offer_one(node, wl, wr, best)

    def _junction_scan(self, node, junctions, scale_hi: float, best: _Best, clip: tuple[float, float] | None):
        """Arcs straddling each junction on a (length x offset) grid, then each junction's 4 leaders refined.

        ``junctions`` lists ``(c, shortest length)`` pairs.  An arc
        ``(c, t, ell)`` has length ``ell`` with the fraction ``t`` of it left
        of ``c``, clipped to ``clip`` on interval carriers.  The grids of all
        junctions are one batched query, and the leaders of all junctions
        refine in lockstep, one batched query per golden step; the offers
        then replay junction by junction, grid first, in the order a
        junction-at-a-time scan makes them.
        """
        cfg = self.cfg

        def arcs(cs, ts, ells):
            ls, rs = cs - ts * ells, cs + (1.0 - ts) * ells
            if clip is not None:
                ls, rs = np.maximum(ls, clip[0]), np.minimum(rs, clip[1])
            # an arc that clipping empties is worth -inf
            vs = np.full(ls.size, -math.inf)
            live = rs - ls > 1e-15
            if live.any():
                vs[live] = self.value_at(node, ls[live], rs[live])
            return ls, rs, vs

        offsets = np.arange(1, 2**cfg.dyadic_level) / 2.0**cfg.dyadic_level
        lengths = [_geom_lengths(max(s, 1e-13), scale_hi, max(2, cfg.grid_points)) for _, s in junctions]
        owner = np.repeat(np.arange(len(junctions)), [g.size * offsets.size for g in lengths])
        cs = np.array([c for c, _ in junctions])
        ls, rs, vs = arcs(cs[owner], np.tile(offsets, owner.size // offsets.size), np.repeat(np.concatenate(lengths), offsets.size))
        # the 4 best grid arcs of every junction are the lanes of the refinement
        tops = [np.flatnonzero(owner == j)[np.argsort(-vs[owner == j], kind="stable")[:4]] for j in range(len(junctions))]
        lanes = np.concatenate(tops)
        lanes = lanes[vs[lanes] > -math.inf]
        lc, ell0 = cs[owner[lanes]], rs[lanes] - ls[lanes]
        t0 = np.minimum(np.maximum((lc - ls[lanes]) / ell0, 0.0), 1.0)
        x0 = [math.log(e) for e in ell0.tolist()]
        log_lo = [math.log(max(junctions[j][1], 1e-13)) for j in owner[lanes].tolist()]
        log_hi = math.log(scale_hi)

        def exps(xs):
            return np.array([math.exp(x) for x in xs.tolist()])

        lo, hi = [max(x - 2.0, a) for x, a in zip(x0, log_lo)], [min(x + 2.0, log_hi) for x in x0]
        lx, _ = _golden_max(lambda xs: arcs(lc, t0, exps(xs))[2], lo, hi, cfg.refine_iters)
        ell1 = exps(lx)
        tt, _ = _golden_max(lambda ts: arcs(lc, ts, ell1)[2], np.zeros(lanes.size), np.ones(lanes.size), cfg.refine_iters)
        fl, fr, fv = arcs(lc, tt, ell1)
        # replay junction by junction, grid arcs first, as a junction-at-a-time scan offers them
        order = np.argsort(np.concatenate((owner, owner[lanes])), kind="stable")
        for v, l, r in zip(*(np.concatenate(pair)[order].tolist() for pair in ((vs, fv), (ls, fl), (rs, fr)))):
            if v > -math.inf:
                best.offer(v, l, r)


def _dag_search(expr: ConstructExpr, objective: _Objective, cfg: SearchConfig):
    engine = _DagSearch(objective, cfg)
    value, witness = engine.search(expr)
    best = _Best()
    if witness is not None:
        best.offer(value, witness[0], witness[1])
    upper = _certificate(objective, cfg, expr.atom_values, expr.distribution(), engine.raw_max, best)
    return best, engine.evaluations, upper, []


# -- public operations ------------------------------------------------------------------


def _finish(cfg: SearchConfig, best: _Best, evaluations: int, upper, scan) -> SearchReport:
    if not math.isfinite(best.value) or math.isnan(best.left):
        raise InputError("search produced no candidates")
    wl, wr, _ = best.finish()
    return SearchReport(
        lower=best.value,
        witness=IntervalQuery(wl, wr),
        evaluations=evaluations,
        config=cfg,
        upper=upper,
        scan=scan,
    )


def _is_circle(target) -> bool:
    if isinstance(target, (StepFunction, ConstructExpr)):
        return target.is_circle
    raise InputError(f"unsupported search target {target!r}")


def _check_positive(target):
    if isinstance(target, StepFunction):
        if np.any(target.values <= 0):
            raise InputError("weight values must be strictly positive")
    else:
        if np.any(target.atom_values <= 0):
            raise InputError("weight atoms must be strictly positive")


def _search(target, objective: _Objective, cfg: SearchConfig | None, collect_scan: bool) -> SearchReport:
    """The one search entry: flat for step functions and small DAGs, structural for large DAGs."""
    circle = _is_circle(target)
    if objective.requires_positive:
        _check_positive(target)
    cfg = cfg or SearchConfig()
    if isinstance(target, ConstructExpr):
        pieces = required_pieces(target)
        if pieces > _FLAT_LIMIT:
            if collect_scan:
                raise InputError(
                    f"a candidate scan needs a target of at most {_FLAT_LIMIT} pieces, "
                    f"this one has {pieces} and is searched as a DAG"
                )
            return _finish(cfg, *_dag_search(target, objective, cfg))
        target = materialize(target, max_pieces=_FLAT_LIMIT)
    flat_search = _flat_circle_search if circle else _flat_interval_search
    return _finish(cfg, *flat_search(target, objective, cfg, collect_scan))


def bmo_norm(target, p: float, cfg: SearchConfig | None = None, collect_scan: bool = False) -> SearchReport:
    """Supremum of the centered p-oscillation over subintervals of an interval target."""
    objective = _BmoObjective(p)
    if _is_circle(target):
        raise InputError("target carries circle content; use the circle search")
    return _search(target, objective, cfg, collect_scan)


def circle_bmo_norm(target, p: float, cfg: SearchConfig | None = None, collect_scan: bool = False) -> SearchReport:
    """Supremum of the centered p-oscillation over all arcs of a circle target."""
    objective = _BmoObjective(p)
    if not _is_circle(target):
        raise InputError("target carries interval content; use the circle search on circle targets only")
    return _search(target, objective, cfg, collect_scan)


def ap_constant(target, p: float, cfg: SearchConfig | None = None, collect_scan: bool = False) -> SearchReport:
    """Supremum of ``<w>_J <w^{-1/(p-1)}>_J^{p-1}`` over subintervals or arcs."""
    return _search(target, _ApObjective(p), cfg, collect_scan)


def a_inf_constant(target, cfg: SearchConfig | None = None, collect_scan: bool = False) -> SearchReport:
    """Supremum of ``<w>_J exp(-<log w>_J)`` over subintervals or arcs."""
    return _search(target, _AInfObjective(), cfg, collect_scan)


def weak_distribution(f: StepFunction, q, lam: float) -> float:
    """Exact normalized measure of ``{|f - <f>_I| >= lam}`` within the interval."""
    if lam <= 0:
        raise InputError(f"deviation threshold must be positive, got {lam}")
    q = as_query(q)
    ov = f.overlaps(q)
    m = float(np.dot(ov, f.values)) / q.length
    mask = np.abs(f.values - m) >= lam
    return float(ov[mask].sum() / q.length)


def exp_integral(target, q=None, c: float = 1.0) -> float:
    """Exact unnormalized ``int_I e^{c f}``; overflow reports +inf.

    For a construction DAG with ``q`` omitted the integral runs over one
    full period and equals the atom sum of the node distribution.
    """
    if isinstance(target, StepFunction):
        if q is None:
            if not target.is_circle:
                raise InputError("interval functions need an explicit query interval")
            q = (float(target.breakpoints[0]), float(target.breakpoints[0]) + 1.0)
        q = as_query(q)
        ov = target.overlaps(q)
        with np.errstate(over="ignore"):
            return float(np.dot(ov, np.exp(c * target.values)))
    if isinstance(target, ConstructExpr):
        if q is None:
            return target.distribution().exp_integral(c)
        q = as_query(q)
        res = dag_query(target, q)
        return res.distribution.exp_integral(c) * q.length
    raise InputError(f"unsupported target {target!r}")


def reverse_holder_ratio(w: StepFunction, q, qexp: float) -> float:
    """Exact ``<w^q>_I^{1/q} / <w>_I`` for a positive step weight."""
    if qexp <= 1:
        raise InputError(f"reverse Holder exponent must exceed 1, got {qexp}")
    if np.any(w.values <= 0):
        raise InputError("weight values must be strictly positive")
    q = as_query(q)
    ov = w.overlaps(q)
    mean = float(np.dot(ov, w.values)) / q.length
    mean_q = float(np.dot(ov, w.values**qexp)) / q.length
    return mean_q ** (1.0 / qexp) / mean
