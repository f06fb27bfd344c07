"""Global supremum searches over subintervals, arcs, and long arcs.

The quantities searched for (oscillation seminorms, weight constants) are
defined as suprema over all subintervals of the carrier.  The supremum is
generally *not* attained at breakpoint pairs.  It lies on the boundary of
a cell pair's box of end positions (the edge principle): the intervals of
one mean of the first transform form a line of the box, and every
functional searched is monotone along it (see ``_enumerate_pairs``).  For
objectives determined by the means of a few value transforms (BMO_2, A_p,
A_inf) it is therefore attained at one of at most 8 closed-form points
per pair of cells, the box's corners and edge roots, and flat searches
enumerate them exactly.
BMO_1 is the largest of one such objective per value threshold (``∫|f −
m| = 2·max_τ ∫(f − m)·1{f ≥ τ}``), and is enumerated per cell pair and
threshold.  For BMO_p with p not in {1, 2} an interval across one jump is
a two-point law, so the supremum over each pair of adjacent cells has a
closed form (``_jump_candidates``); on the other cell pairs, the best
pairs of points of a dyadic grid inside every cell seed a projected
Newton ascent over their boxes (``_newton_ascent``), all in lockstep.

Every search enters through ``_search``.  A candidate's overlaps come from
the one overlap kernel, ``StepFunction.overlap_rows``, or its atom weights
from a DAG query, and its value from its objective's one row functional,
``raw_from_parts``; the grids are fixed.  Flat step functions, and DAGs of
at most ``_FLAT_LIMIT`` pieces once materialized, are evaluated in
vectorized chunks.  A flat circle searches the arcs of up to two periods
as subintervals of its two-period unrolling, and longer arcs on a grid.
Larger construction DAGs use a structure-aware strategy: intervals inside
a single copy are affine images of child intervals, so child searches
recurse and their witnesses embed through a representative copy;
boundary-straddling intervals are scanned around each junction type on a
logarithmic length grid; arcs covering at least ``r_long`` whole periods
have distributions within total variation ``2 / (r_long + 1)`` of the
node distribution, which caps their values provably.

A node with one atom (a constant, or constants of one value homogenized,
glued or periodized) has that value on every arc; it is neither scanned
nor queried, and the walk does not enter the nodes below it.

DAG arcs are evaluated a batch at a time through the masses-only chunk
loop of ``construct.query_batches``, whose rows may belong to different
nodes.
The junction scans of every node the walk enters run in lockstep: the
junction grids of all nodes and the long-arc grids of all circle nodes
are one query, and the block golden-section refinement of all their
junction leaders takes one query per round, whose best probes are the
refined arcs; a node's full carrier or base period takes the node
distribution, and embedded child witnesses are single queries.  Each
node takes its offers where the structural walk reaches it.

The witness of a search depends on the set of its offers alone, never on
their order or batching: it is the offer first in (left, length) order
among those within a relative 1e-12 of the largest value offered
(``_Best``).

When ``certify`` is set, reports carry an upper bound next to the lower
bound.  For flat interval functions under an enumerated objective it is a
proof: the largest raw value over each candidate's means widened by their
rounding bound.  For BMO_p with p not in {1, 2} it is the value-range
bound.  DAG leaves under an enumerated objective add their proof to the
DAG's raw maximum.  For
circle targets it is the maximum evaluated raw functional (including the
node-distribution asymptote) plus a crude-but-sound total variation
perturbation term; its coverage of arcs longer than two periods and
shorter than ``r_long`` rests on the density of the long-arc grid and, on
DAGs, of the junction scans, which is why certified results are reported
as brackets rather than bare values.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .construct import (
    ConstructExpr,
    GlueExpr,
    HomExpr,
    LeafExpr,
    PeriodizeExpr,
    _query_masses,
    materialize,
    query as dag_query,
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
_EPS = 2.0**-52  # spacing of floats at 1
_REFINE_TOP = 32  # leading pair-scan candidates that seed a Newton ascent
_NEWTON_ITERS = 64  # most Newton iterations of a lane
_NEWTON_CUTS = 4  # step halvings tried per Newton iteration
_MAX_SECTIONS = 15  # most new probes per lane and golden round
_PROBE_ROWS = 2048  # rows up to which a probe pass costs mostly its fixed cost
_GRID_LEVEL = 2  # dyadic level of the in-cell, long-arc and junction offset grids
_PER_OCTAVE = 3  # lengths per octave of the long-arc and junction grids


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the supremum searches.

    ``refine_iters`` sets the resolution of each golden-refined coordinate
    of DAG junction scans, the only golden refinement: its final bracket is
    no wider than golden section's after ``refine_iters`` probes,
    ``φ^-(refine_iters - 1)`` of the initial one, whatever the probes per
    round (see ``_golden_max``); flat searches and membership validation
    do not read it.  The grids are
    fixed: ``_GRID_LEVEL`` dyadic offsets inside each cell and junction
    and along long arcs, ``_PER_OCTAVE`` lengths per octave.
    ``r_long`` is the copy-count threshold of the long-arc regime;
    ``max_periods`` the largest scanned arc length in periods; ``certify``
    attaches an upper bound to each report; ``threads`` the worker count
    of the flat chunks.
    """

    refine_iters: int = 40
    r_long: int = 64
    max_periods: int = 256
    certify: bool = False
    threads: int = 1

    def __post_init__(self):
        for name in ("refine_iters", "r_long", "max_periods", "threads"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


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
    """``|diff| ** p``, computed in place: ``diff`` is a temporary the caller gives up."""
    # fast paths: float powers are an order of magnitude slower than these
    if p == 2.0:
        return np.multiply(diff, diff, out=diff)
    out = np.abs(diff, out=diff)
    if p == 1.0:
        return out
    if p == float(int(p)) and p <= 8:
        acc = out.copy()
        for _ in range(int(p) - 1):
            acc *= out
        return acc
    return np.power(out, p, out=out)


class _Objective:
    """A supremum functional: raw value per interval plus a report transform."""

    name = "abstract"
    requires_positive = False
    translation_invariant = False

    def raw_from_parts(self, ov: np.ndarray, values: np.ndarray, lengths) -> np.ndarray:
        """Raw functional of each interval from its row of overlaps ``ov`` with the pieces and its length.

        Rows of probability weights over atoms ``values`` pass ``lengths =
        1.0``, an exact division.  Row sums run through ``einsum``, never
        BLAS, so a row's value does not depend on the other rows of the batch.
        """
        raise NotImplementedError

    def thresholds(self, values: np.ndarray):
        """The split family of the raw value over the function's ``values``, or None for one trivial split.

        A split objective's raw value is the largest of one mean-decomposable
        functional per threshold ``τ``, each at most the raw value and equal
        to it at the smallest threshold at or above the interval's mean of
        the first prefix transform.
        """
        return None

    def prefix_transforms(self):
        """Value transforms whose interval means determine the functional.

        Each maps the values ``v`` and the thresholds ``tau`` (None for one
        trivial split) to the transformed values, by broadcasting.  Returns
        None when the functional is not mean-decomposable and the
        overlap-matrix path must be used.
        """
        return None

    def raw_from_means(self, means: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def stationarity(self, L, T, t):
        """The raw value's derivative, times a positive factor, as an end of ``[l, r]`` moves into a piece.

        ``L`` is the length of ``[l, r]``, ``T`` the integrals of the prefix
        transforms over it, and ``t`` the piece's transform values.  For
        ``F`` of the means the derivative is ``(1/L)·Σ_k F_k·(t_k − T_k/L)``;
        cleared of positive factors it is affine along the moving end, so
        each edge of a cell pair's box has at most one root.
        """
        raise NotImplementedError

    def raw_ceiling(self, means, errs):
        """Largest raw value over the means ``means[k] ± errs[k]``."""
        raise NotImplementedError

    def raw_from_dist(self, d: DiscreteDistribution) -> float:
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
    """BMO_p of any order ``p >= 1``, through overlaps; ``_bmo_objective`` picks the enumerated orders 1 and 2."""

    translation_invariant = True

    def __init__(self, p: float):
        if p < 1:
            raise InputError(f"oscillation order p must be >= 1, got {p}")
        self.p = float(p)
        self.name = f"bmo_{p:g}"

    def raw_from_parts(self, ov, values, lengths):
        m = np.einsum("ij,j->i", ov, values) / lengths
        return np.einsum("ij,ij->i", ov, _abs_power(values[None, :] - m[:, None], self.p)) / lengths

    def raw_from_dist(self, d):
        return d.central_moment(self.p)

    def value_from_raw(self, raw):
        return raw ** (1.0 / self.p)

    def raw_of_value(self, value):
        return value**self.p

    def range_bound(self, vmin, vmax):
        return vmax - vmin

    def tv_slack(self, vmin, vmax, tv):
        return tv * 2.0 ** (self.p + 1.0) * (vmax - vmin) ** self.p


class _Bmo2Objective(_BmoObjective):
    """BMO_2: the variance, ``F(a, b) = b − a²`` of the means of ``v`` and ``v²``."""

    def prefix_transforms(self):
        return [lambda v, tau: v, lambda v, tau: v * v]

    def raw_from_means(self, means):
        m1, m2 = means
        return np.maximum(m2 - m1 * m1, 0.0)

    def stationarity(self, L, T, t):
        # L²·[(t1 − m)² − var]
        return (t[0] * L - T[0]) ** 2 - (T[1] * L - T[0] * T[0])

    def raw_ceiling(self, means, errs):
        (a, b), (da, db) = means, errs
        return (b + db) - np.maximum(np.abs(a) - da, 0.0) ** 2


class _Bmo1Objective(_BmoObjective):
    """BMO_1, split by value thresholds.

    For an interval ``J`` of mean ``m``, ``∫_J |f − m| = 2·max_τ ∫_J (f −
    m)·1{f ≥ τ}`` over the function's values ``τ``, attained at the
    smallest value at or above ``m``.  So the raw value is the largest of
    ``R_τ = 2·(b_τ − a·u_τ)`` in the means ``a``, ``u_τ`` and ``b_τ`` of
    ``v``, ``1{v ≥ τ}`` and ``v·1{v ≥ τ}``, each ``R_τ`` at most the raw
    value.
    """

    def thresholds(self, values):
        return np.unique(values)

    def prefix_transforms(self):
        return [lambda v, tau: v, lambda v, tau: (v >= tau) * 1.0, lambda v, tau: np.where(v >= tau, v, 0.0)]

    def raw_from_means(self, means):
        a, u, b = means
        return np.maximum(2.0 * (b - a * u), 0.0)

    def stationarity(self, L, T, t):
        # L³/2 times the derivative of 2·N/L² with N = B·L − A·U, whose x² and y² terms cancel
        A, U, B = T
        return (t[0] * L - A) * (t[1] * L - U) - (B * L - A * U)

    def raw_ceiling(self, means, errs):
        (a, u, b), (da, du, db) = means, errs
        low = np.minimum(np.minimum((a - da) * (u - du), (a - da) * (u + du)), np.minimum((a + da) * (u - du), (a + da) * (u + du)))
        return 2.0 * ((b + db) - low)


def _bmo_objective(p: float) -> _BmoObjective:
    """The BMO_p objective; orders 1 and 2 enumerate cell pairs exactly."""
    return {1.0: _Bmo1Objective, 2.0: _Bmo2Objective}.get(float(p), _BmoObjective)(p)


class _WeightObjective(_Objective):
    """A weight constant: at least 1 on every interval, by Jensen's inequality."""

    requires_positive = True

    def value_from_raw(self, raw):
        # rounding can put a constant weight's raw value an ulp below 1
        return np.maximum(raw, 1.0) if np.ndim(raw) else max(raw, 1.0)


class _ApObjective(_WeightObjective):
    def __init__(self, p: float):
        if p <= 1:
            raise InputError(f"weight exponent p must be > 1, got {p}")
        self.p = float(p)
        self.name = f"ap_{p:g}"

    def raw_from_parts(self, ov, values, lengths):
        a = np.einsum("ij,j->i", ov, values) / lengths
        b = np.einsum("ij,j->i", ov, values ** (-1.0 / (self.p - 1.0))) / lengths
        return a * b ** (self.p - 1.0)

    def prefix_transforms(self):
        s = -1.0 / (self.p - 1.0)
        return [lambda v, tau: v, lambda v, tau: v**s]

    def raw_from_means(self, means):
        a, b = means
        if self.p == 2.0:
            return a * b
        return a * b ** (self.p - 1.0)

    def stationarity(self, L, T, t):
        # L²·[b·(t1 − a) + (p − 1)·a·(t2 − b)], the derivative over b^(p−2)
        (A, B), (t1, t2) = T, t
        return B * (t1 * L - A) + (self.p - 1.0) * A * (t2 * L - B)

    def raw_ceiling(self, means, errs):
        (a, b), (da, db) = means, errs
        return (a + da) * (b + db) ** (self.p - 1.0)

    def raw_from_dist(self, d):
        return d.ap_form(self.p)

    def tv_slack(self, vmin, vmax, tv):
        ratio = vmax / vmin
        return 2.0 * self.p * tv * ratio ** max(1.0, 1.0 / (self.p - 1.0))


class _AInfObjective(_WeightObjective):
    name = "a_inf"

    def raw_from_parts(self, ov, values, lengths):
        a = np.einsum("ij,j->i", ov, values) / lengths
        g = np.einsum("ij,j->i", ov, np.log(values)) / lengths
        return a * np.exp(-g)

    def prefix_transforms(self):
        return [lambda v, tau: v, lambda v, tau: np.log(v)]

    def raw_from_means(self, means):
        a, g = means
        return a * np.exp(-g)

    def stationarity(self, L, T, t):
        # L²·[(t1 − a) − a·(t2 − g)]
        (A, B), (t1, t2) = T, t
        return L * (t1 * L - A) - A * (t2 * L - B)

    def raw_ceiling(self, means, errs):
        (a, g), (da, dg) = means, errs
        return (a + da) * np.exp(dg - g)

    def raw_from_dist(self, d):
        return d.geometric_form()

    def tv_slack(self, vmin, vmax, tv):
        biglog = max(abs(math.log(vmin)), abs(math.log(vmax)))
        return 2.0 * tv * (vmax / vmin) * (1.0 + biglog)


# -- candidate bookkeeping ---------------------------------------------------------


class _Best:
    """The largest value offered, and a witness that depends on the set of offers alone.

    Offers within a relative 1e-12 of the maximum (the maximum itself at
    ±inf) are ties, so one-ulp noise cannot displace a cleaner witness: the
    witness is the tie first in (left, length) order, then by larger value
    and larger right end (a computed end an ulp short of a breakpoint comes
    after it).  ``front`` holds the ties that no other dominates (comes
    first with an equal or higher value) as ``(left, length, -value,
    -right)``, in that order, values rising.  Given a list ``scan``,
    ``offer_array`` appends every batch to it as ``(left, right, length,
    value)`` rows.  No offered value may be NaN.
    """

    __slots__ = ("value", "front", "scan")

    def __init__(self, scan: list | None = None):
        self.value = -math.inf
        self.front: list = []
        self.scan = scan

    def offer(self, value: float, left: float, right: float):
        self.offer_array(np.array([value], dtype=float), np.array([left], dtype=float), np.array([right], dtype=float))

    def offer_array(self, values: np.ndarray, lefts: np.ndarray, rights: np.ndarray):
        if values.size == 0:
            return
        if self.scan is not None:
            self.scan.append(np.column_stack((lefts, rights, rights - lefts, values)))
        # -0.0 counts as 0.0, so that no sign of zero depends on the order of offers
        values = values + 0.0
        self.value = max(self.value, float(values.max()))
        window = self.value if math.isinf(self.value) else self.value - 1e-12 * abs(self.value)
        idx = np.flatnonzero(values >= window)
        if not idx.size:
            return
        v, l, r = values[idx], lefts[idx], rights[idx]
        lens = r - l
        # no undominated tie comes after the batch's first maximum in (left, length) order
        at = v == v.max()
        l0 = l[at].min()
        near = np.flatnonzero((l < l0) | ((l == l0) & (lens <= lens[at & (l == l0)].min())))
        v, l, r, lens = v[near], l[near], r[near], lens[near]
        order = np.lexsort((-r, -v, lens, l))
        # the batch's undominated ties: each value above every value before it in (left, length) order
        sv = v[order]
        keep = order[np.concatenate(([True], sv[1:] > np.maximum.accumulate(sv)[:-1]))]
        keys = sorted(self.front + list(zip(l[keep].tolist(), lens[keep].tolist(), (-v[keep]).tolist(), (-r[keep]).tolist())))
        self.front = []
        for key in keys:
            if -key[2] >= window and (not self.front or key[2] < self.front[-1][2]):
                self.front.append(key)

    def finish(self):
        """The witness ``(left, right, value)``, or None when nothing was offered; the exact maximum stays the bound."""
        if not self.front:
            return None
        left, _, neg, neg_right = self.front[0]
        return left, -neg_right, -neg


def _sections(lanes: int) -> int:
    """New probes per lane and round of ``_golden_max`` for a batch of ``lanes``.

    The largest odd count at most ``_MAX_SECTIONS`` whose probes of all
    lanes fit in ``_PROBE_ROWS`` rows, and at least 1.  Up to about that
    many rows the fixed cost of a batched probe pass (a DAG query's node
    runs, numpy's per-call cost) outweighs its cost per row, so fewer,
    wider rounds are cheaper; beyond it a pass costs in proportion to its
    rows, and the fewest probes in all, golden section's, are cheapest.
    """
    k = min(_MAX_SECTIONS, _PROBE_ROWS // max(lanes, 1))
    return max(1, k - 1 + k % 2)


def _golden_max(f, lo, hi, iters: int, k: int | None = None):
    """Block golden-section ascent on the brackets ``[lo[i], hi[i]]`` in lockstep.

    Every round places ``k`` (odd) new probes in each lane's bracket and
    keeps its best old probe; the ``k + 1`` probes cut the bracket into
    segments alternating ``s, t, ..., t, s`` with ``s = r²``, ``s + t = r``
    and ``r² + ((k + 1)/2)·r − 1 = 0`` (Avriel & Wilde's block search).  The
    best probe's neighbours bracket the next round, a fraction ``r`` of
    this one, in which the kept probe falls on the second point from one
    end.  The first round places all ``k + 1`` probes.  At ``k = 1`` this is
    golden section, ``r = 1/φ``.  Rounds go on until the bracket is no wider
    than ``φ^-(iters - 1)`` of the initial one, golden section's after
    ``max(iters, 2)`` probes.

    ``f`` maps a ``(lanes, m)`` array of probes to their values.  A lane's
    probes depend only on its own values, so for a given ``k`` lanes never
    influence each other; ``k`` defaults to ``_sections(lanes)``.  Returns
    the best probe and value of every lane; ties go to the left probe.
    """
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lanes = np.arange(a.size)
    k = _sections(a.size) if k is None else k
    h = (k + 1) // 2
    r = (math.sqrt(h * h + 4.0) - h) / 2.0
    width = ((math.sqrt(5.0) - 1.0) / 2.0) ** (max(iters, 2) - 1)
    rounds = 1
    while r**rounds > width:
        rounds += 1
    # point j of the right half lies a fraction far[j] from the left end,
    # its mirror in the left half the same fraction from the right end
    far = np.array([(j // 2) * r + (j % 2) * r * r for j in range(h + 1, 2 * h + 1)])
    right = np.arange(2 * h) >= h
    step = np.concatenate((-far[::-1], far))  # b - c·w is b + (-c)·w, bitwise

    def points(a, b):
        return np.where(right, a[:, None], b[:, None]) + step * (b - a)[:, None]

    # a best probe at an odd place (counting from 1) has an s segment on its
    # left, so it lands on the next pattern's second point, else on its
    # second to last
    keep_at = np.where(np.arange(k + 1) % 2 == 0, 1, k - 1)
    new_at = np.arange(k + 1) != keep_at[:, None]
    x = points(a, b)
    v = np.asarray(f(x), dtype=float)
    i = v.argmax(axis=1)
    best_x, best_v = x[lanes, i], v[lanes, i]
    for _ in range(rounds - 1):
        ends = np.column_stack((a, x, b))
        a, b, kx, kv = ends[lanes, i], ends[lanes, i + 2], x[lanes, i], v[lanes, i]
        keep, new = keep_at[i], new_at[i]
        x = points(a, b)
        x[lanes, keep] = kx
        v = np.empty_like(x)
        v[new] = np.asarray(f(x[new].reshape(-1, k)), dtype=float).ravel()
        v[lanes, keep] = kv
        i = v.argmax(axis=1)
        cx, cv = x[lanes, i], v[lanes, i]
        better = cv > best_v
        best_x, best_v = np.where(better, cx, best_x), np.where(better, cv, best_v)
    return best_x, best_v


# -- flat-function engine -----------------------------------------------------------


def _centered(f: StepFunction, objective: _Objective) -> np.ndarray:
    """The function's values, centered when the objective allows it.

    Centering costs nothing and avoids cancellation when the mean dwarfs
    the oscillation.
    """
    if not objective.translation_invariant:
        return f.values
    lens = np.diff(f.breakpoints)
    return f.values - np.dot(lens, f.values) / lens.sum()


class _FlatTarget:
    """An interval step function prepared for chunked candidate evaluation.

    Candidates evaluate through exact overlap matrices
    (``StepFunction.overlap_rows``).
    """

    def __init__(self, f: StepFunction, objective: _Objective):
        self.f = f
        self.bp = f.breakpoints
        self.values = _centered(f, objective)
        self.objective = objective
        self.evaluations = 0

    def value_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        raw = self.objective.raw_from_parts(self.f.overlap_rows(lefts, rights), self.values, rights - lefts)
        return self.objective.value_from_raw(raw)


def _triu_pair(n: int, k: np.ndarray):
    """The ``k``-th pairs ``(i, j)``, ``i < j < n``, of ``np.triu_indices(n, 1)`` order."""
    # the first pair index of each row i (whose pairs are (i, i + 1), ..., (i, n - 1))
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    i = row_start.searchsorted(k, "right") - 1
    return i, k - row_start[i] + i + 1


def _map_chunks(run, spans: list, threads: int, take):
    """``take(span, run(span))`` for every span in order, ``run`` on ``threads`` workers.

    Results are taken in span order whatever the thread count, so a
    search's report does not depend on it.
    """
    if threads > 1 and len(spans) > 1:
        # a few chunks per worker at a time, so finished chunks do not pile up
        window = 4 * threads
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for w in range(0, len(spans), window):
                for span, result in zip(spans[w : w + window], pool.map(run, spans[w : w + window])):
                    take(span, result)
    else:
        for span in spans:
            take(span, run(span))


def _enumerate_pairs(target: _FlatTarget, cfg: SearchConfig, best: _Best, lefts: int):
    """Exact supremum of a mean-decomposable objective: closed-form candidates per cell pair and split.

    An interval ``[l, r]`` with ``l`` in cell ``i`` and ``r`` in cell
    ``j > i`` is the point ``(x, y) = (b[i+1] − l, r − b[j])`` of the box
    ``[0, h_i] x [0, h_j]``; its length and the integrals of the prefix
    transforms are affine in ``(x, y)``.  The raw value's maximum over the
    box lies on its boundary.  The mean ``c`` of the first transform is
    linear-fractional on the box, so each level set ``{mean = c}`` is a
    line, and along it the raw value is linear-fractional, or a monotone
    function of a linear-fractional one: BMO_p's is ``(G(c) + x·|v_i −
    c|^p + y·|v_j − c|^p)/(L0 + x + y)``, with ``G(c)`` the integral of
    ``|f − c|^p`` over the pair's middle of length ``L0``; A_p's is
    ``c·b^(p−1)`` and A_inf's ``c·exp(−g)``, with ``b`` and ``g``
    linear-fractional; and each BMO_1 split's is ``2·(b_τ − c·u_τ)``.  A
    linear-fractional function is monotone along a segment, so an end of
    the segment, on the boundary, is at least as good as any point inside
    it.  Where ``v_i = v_j = c``
    the whole box is one level set, the raw value is linear-fractional on
    it, and a corner wins.  So the maximum is attained at one of 8
    candidates: the 4 corners, and the root on each of the 4 edges of the
    objective's ``stationarity``, which is affine along an edge and so is
    found from the edge's two corners.  Intervals inside one cell take the
    objective's smallest value and need no candidate; a one-cell target
    offers its carrier.

    The rows of the enumeration are (cell pair, split).  An objective with
    ``thresholds`` is split: each threshold ``τ`` has its own transforms,
    and the raw value of an interval is the functional of the smallest
    threshold at or above its mean of the first transform.  That mean is
    a linear-fractional function on the box, so it ranges between its
    values at the corners; a pair's rows are the thresholds from the
    smallest corner mean to the largest, both widened by their rounding
    bounds (below) and then by one threshold on each side.  Other
    objectives have one row per pair.

    Pairs are taken a chunk of rows at a time in ``np.triu_indices`` order,
    left cells below ``lefts`` only.  A pair's middle integrals are
    differences of prefix sums accumulated in extended precision, so
    short middles keep their digits.

    Candidates are offered to ``best``.  With ``certify`` the return
    value is a ceiling on the raw value of every subinterval, else None.
    A candidate's mean of a transform ``t`` is off by at most
    ``(16·ε·M + (j − i − 1)·ε'·Q_j)/L``: ``M`` is the integral of ``|t|``
    over the interval, ``Q_j`` that over
    ``[b[0], b[j]]``, ``ε = 2⁻⁵²`` and ``ε'`` the spacing at 1 of the
    extended type.  The second term bounds the accumulation between the two
    prefix ends; the first bounds the transform values, cell lengths,
    affine parts and division (about ``7·ε``), and its margin covers the
    rounding of ``raw_ceiling``, which maximizes the raw value over those
    means.  A computed edge root misses the exact one by rounding, where
    the raw value is stationary, so it loses a second-order amount.
    """
    objective, bp = target.objective, target.bp
    n = target.values.size
    if n == 1:
        # every subinterval has the carrier's value
        target.evaluations += 1
        vals = target.value_batch(bp[:1], bp[1:])
        best.offer_array(vals, bp[:1], bp[1:])
        return objective.raw_of_value(float(vals[0])) * (1.0 + 64.0 * _EPS) if cfg.certify else None
    h, v = np.diff(bp), target.values
    taus = objective.thresholds(v)
    transforms = objective.prefix_transforms()

    def prefix(t):
        out = np.zeros((t.shape[0], n + 1), dtype=np.longdouble)
        np.cumsum(t * h, axis=1, dtype=np.longdouble, out=out[:, 1:])
        return out

    # per transform: cell values (None where they depend on the split, and
    # rows evaluate them), prefix sums of the values and of their absolute
    # values, one row per split; the first transform's rounding bound
    # places the thresholds, the others' only certify
    cells, prefixes, abs_prefixes = [], [], []
    for k, g in enumerate(transforms):
        t = np.atleast_2d(g(v, None) if taus is None else g(v[None, :], taus[:, None]))
        cells.append(t[0] if t.shape[0] == 1 else None)
        prefixes.append(prefix(t))
        abs_prefixes.append(prefixes[-1] if t.min() >= 0 else prefix(np.abs(t)) if k == 0 or cfg.certify else None)
    eps_ext = float(np.finfo(np.longdouble).eps)
    m = min(lefts, n - 1)
    n_pairs = m * (n - 1) - m * (m - 1) // 2  # the pairs whose left cell is below lefts

    def take_rows(table, split, k):
        # a prefix table's entries at cells k under the splits of the rows
        return table[0][k] if table.shape[0] == 1 else table[split, k]

    def pair_parts(i, j, split):
        # length and transform integrals of each row's middle, and its cells' transform values
        L0 = bp[j] - bp[i + 1]
        S = [(take_rows(p, split, j) - take_rows(p, split, i + 1)).astype(float) for p in prefixes]
        ti = [c[i] if c is not None else g(v[i], taus[split]) for c, g in zip(cells, transforms)]
        tj = [c[j] if c is not None else g(v[j], taus[split]) for c, g in zip(cells, transforms)]
        return L0, S, ti, tj

    def mean_err(q, a, b, i, j, split, X, Y, L):
        # rounding bound of a mean (see above): q the transform's |t| prefix, a and b its cell values
        far = (j - i - 1) * eps_ext
        return (16.0 * _EPS * ((take_rows(q, split, j) - take_rows(q, split, i + 1)).astype(float) + X * np.abs(a) + Y * np.abs(b))
                + far * take_rows(q, split, j).astype(float)) / L

    def window(i, j):
        # the first and count of each pair's thresholds: its corner means of the first transform, widened
        hi, hj, a, b = h[i], h[j], cells[0][i], cells[0][j]
        zero = np.zeros_like(hi)
        X, Y = np.stack((zero, hi, zero, hi)), np.stack((zero, zero, hj, hj))
        L = bp[j] - bp[i + 1] + X + Y
        with np.errstate(divide="ignore", invalid="ignore"):
            m = ((prefixes[0][0][j] - prefixes[0][0][i + 1]).astype(float) + X * a + Y * b) / L
            err = mean_err(abs_prefixes[0], a, b, i, j, 0, X, Y, L)
        live = L > 0
        first = taus.searchsorted(np.where(live, m - err, math.inf).min(axis=0)) - 1
        last = taus.searchsorted(np.where(live, m + err, -math.inf).max(axis=0)) + 1
        first, last = np.clip(first, 0, taus.size - 1), np.clip(last, 0, taus.size - 1)
        return first, last - first + 1

    def run(span):
        i, j = _triu_pair(n, np.arange(*span))
        split = 0
        if taus is not None:
            first, counts = window(i, j)
            i, j = np.repeat(i, counts), np.repeat(j, counts)
            split = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(i.size)
        hi, hj = h[i], h[j]
        zero = np.zeros_like(hi)
        L0, S, ti, tj = pair_parts(i, j, split)

        def parts(X, Y):
            return L0 + X + Y, [s + X * a + Y * b for s, a, b in zip(S, ti, tj)]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # corners (0, 0), (h_i, 0), (0, h_j), (h_i, h_j)
            L, T = parts(np.stack((zero, hi, zero, hi)), np.stack((zero, zero, hj, hj)))
            gi, gj = (objective.stationarity(L, T, t) for t in (ti, tj))
            # edge roots: the left end moves along y = 0 and y = h_j, the right along x = 0 and x = h_i
            xb, xt = hi * gi[0] / (gi[0] - gi[1]), hi * gi[2] / (gi[2] - gi[3])
            yl, yr = hj * gj[0] / (gj[0] - gj[2]), hj * gj[1] / (gj[1] - gj[3])
            X = np.stack((zero, hi, zero, hi, xb, xt, zero, hi))
            Y = np.stack((zero, zero, hj, hj, zero, hj, yl, yr))
            live = np.concatenate((L > 0, [(0 < xb) & (xb < hi), (0 < xt) & (xt < hi), (0 < yl) & (yl < hj), (0 < yr) & (yr < hj)]))
            L, T = parts(X, Y)
            means = [t / L for t in T]
            raw = objective.raw_from_means(means)[live]
            ceiling = -math.inf
            if cfg.certify:
                errs = [mean_err(q, a, b, i, j, split, X, Y, L) for q, a, b in zip(abs_prefixes, ti, tj)]
                ceiling = float(objective.raw_ceiling(means, errs)[live].max())
        ls = np.where(X == hi, bp[i], bp[i + 1] - X)[live]
        rs = np.where(Y == hj, bp[j + 1], bp[j] + Y)[live]
        return ls, rs, objective.value_from_raw(raw), ceiling

    # a row's 8 candidates hold about 128 floats of temporaries per transform
    chunk = max(1, _CHUNK_BUDGET // (128 * len(transforms)))
    if taus is None:
        spans = [(s, min(s + chunk, n_pairs)) for s in range(0, n_pairs, chunk)]
    else:
        # spans of pairs of about chunk rows: a span ends at the pair whose rows cross a multiple of chunk
        rows = np.cumsum(np.concatenate([window(*_triu_pair(n, np.arange(s, min(s + chunk, n_pairs))))[1]
                                         for s in range(0, n_pairs, chunk)]))
        cuts = np.unique(np.concatenate(([0], rows.searchsorted(np.arange(chunk, rows[-1], chunk), "right"), [n_pairs])))
        spans = list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))
    ceilings = []

    def take(span, result):
        ls, rs, vals, ceiling = result
        target.evaluations += vals.size
        best.offer_array(vals, ls, rs)
        ceilings.append(ceiling)

    _map_chunks(run, spans, cfg.threads, take)
    return max(ceilings) if cfg.certify else None


def _candidate_points(f: StepFunction) -> np.ndarray:
    """The breakpoints and the ``_GRID_LEVEL`` dyadic points inside every cell."""
    offsets = np.arange(1, 2**_GRID_LEVEL) / 2.0**_GRID_LEVEL
    interior = (f.breakpoints[:-1, None] + np.diff(f.breakpoints)[:, None] * offsets[None, :]).ravel()
    return np.unique(np.concatenate((f.breakpoints, interior)))


def _jump_peak(p: float) -> float:
    """The weight ``t* <= 1/2`` maximizing ``φ_p(t) = t(1 − t)^p + (1 − t)t^p``, whose maximum is ``C_p = φ_p(t*)``.

    An interval across a jump ``d`` with the fraction ``t`` of its length
    left of the jump is a two-point law, whose raw BMO_p is ``|d|^p·φ_p(t)``;
    ``φ_p`` is symmetric about 1/2.  For ``p <= 3`` its maximum is at 1/2, so
    ``C_p = 2^-p``; above 3, 1/2 is a local minimum and ``t*`` is the root in
    ``(0, 1/2)`` of ``φ_p'(t) = (1 − t)^(p−1)·(1 − (p+1)t) + t^(p−1)·(p −
    (p+1)t)``, positive below it and negative above, found by bisection.
    """
    t = 0.5
    if p > 3.0:
        lo, hi = 0.0, 0.5
        while True:
            t = 0.5 * (lo + hi)
            if t in (lo, hi):
                break
            if (1.0 - t) ** (p - 1.0) * (1.0 - (p + 1.0) * t) + t ** (p - 1.0) * (p - (p + 1.0) * t) > 0:
                lo = t
            else:
                hi = t
    return t


def _jump_candidates(target: _FlatTarget):
    """The best intervals across every jump: its cell pair's supremum, in closed form.

    The ends of an interval across the breakpoint between adjacent cells
    ``i`` and ``i + 1`` lie in those cells, so its raw value is ``|d|^p·φ_p(t)``
    (see ``_jump_peak``), and the supremum over the pair's box is
    ``|d|^p·C_p``, attained on the ray of weight ``t*`` (and ``1 − t*``).
    The raw value is constant along the ray, and the candidate is its
    longest box point, on the box's boundary as the edge principle of
    ``_enumerate_pairs`` has it: its ends are breakpoints where the box
    binds.
    """
    bp = target.bp
    h = np.diff(bp)
    if h.size < 2:
        return np.empty(0), np.empty(0)
    t = _jump_peak(target.objective.p)
    hi, hj, c = h[:-1], h[1:], bp[1:-1]
    ls, rs = [], []
    for w in dict.fromkeys((t, 1.0 - t)):
        # w of the length left of the jump: x = w·s and y = (1 − w)·s, s as long as the box allows
        si, sj = hi / w, hj / (1.0 - w)
        ls.append(np.where(si <= sj, bp[:-2], c - sj * w))
        rs.append(np.where(si <= sj, c + si * (1.0 - w), bp[2:]))
    return np.concatenate(ls), np.concatenate(rs)


def _chunked_pair_scan(target: _FlatTarget, points: np.ndarray, cfg: SearchConfig, best: _Best):
    """Every pair of candidate points, a chunk at a time; returns the leaders of the Newton ascent.

    Candidate ``k`` is the ``k``-th pair of ``np.triu_indices`` order; the
    ends of a chunk are built when the chunk is evaluated, and only the
    leaders found so far are held across chunks.  The leaders are the
    ``_REFINE_TOP`` best pairs whose ends lie in cells ``i`` and ``j >= i +
    2``, as the arrays ``(lefts, rights, i, j)``, best first, ties to the
    smaller ``k``.  A left end at a breakpoint lies in the cell right of
    it, a right end in the cell left of it.  Several leaders may share a
    cell pair, whose box can hold more than one local maximum.
    """
    n = points.size
    n_pairs = n * (n - 1) // 2
    bp = target.bp
    last = bp.size - 2
    cell_l = np.clip(np.searchsorted(bp, points, "right") - 1, 0, last)
    cell_r = np.clip(np.searchsorted(bp, points, "left") - 1, 0, last)

    def run(span):
        a, b = _triu_pair(n, np.arange(*span))
        ls, rs = points[a], points[b]
        return ls, rs, target.value_batch(ls, rs), a, b

    chunk = max(1, _CHUNK_BUDGET // max(target.values.size, 1))
    spans = [(s, min(s + chunk, n_pairs)) for s in range(0, n_pairs, chunk)]
    lead = (np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0, dtype=int))  # value, k, a, b

    def take(span, result):
        nonlocal lead
        ls, rs, vals, a, b = result
        best.offer_array(vals, ls, rs)
        far = np.flatnonzero(cell_r[b] >= cell_l[a] + 2)
        v, k, a, b = (np.concatenate(pair) for pair in zip(lead, (vals[far], span[0] + far, a[far], b[far])))
        first = np.lexsort((k, -v))[:_REFINE_TOP]
        lead = (v[first], k[first], a[first], b[first])

    _map_chunks(run, spans, cfg.threads, take)
    target.evaluations += n_pairs
    _, _, a, b = lead
    return points[a], points[b], cell_l[a], cell_r[b]


def _oscillation_parts(target: _FlatTarget, ls: np.ndarray, rs: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Raw BMO_p of ``[ls, rs]`` and its gradient and Hessian in ``(x, y)``, ends in cells ``i`` and ``j``.

    With ``x = b[i+1] − l`` and ``y = r − b[j]``, the raw value is ``F = G/L``
    with ``G = ∫_J |f − m|^p``, and the mean moves as ``m_x = (v_i − m)/L``
    and ``m_y = (v_j − m)/L``.  From ``D1 = ∫_J sgn(f − m)|f − m|^(p−1)``
    and ``D2 = ∫_J |f − m|^(p−2)``: ``F_x = (|v_i − m|^p − p·D1·m_x −
    F)/L``, and ``F_xx``, ``F_xy``, ``F_yy`` follow by differentiating once
    more.  Where ``p < 2`` and ``f = m`` on a piece of ``J``, ``D2`` is
    infinite and so is the curvature.
    """
    p, v = target.objective.p, target.values
    ov = target.f.overlap_rows(ls, rs)
    L = rs - ls
    m = np.einsum("ij,j->i", ov, v) / L
    u = v[None, :] - m[:, None]
    au = np.abs(u)
    q = np.power(au, p - 1.0)  # |u|^(p−1)
    s = np.copysign(q, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = np.einsum("ij,ij->i", ov, np.where(ov > 0, np.power(au, p - 2.0), 0.0))
    F = np.einsum("ij,ij->i", ov, q * au) / L
    d1 = np.einsum("ij,ij->i", ov, s)
    rows = np.arange(ls.size)
    si, sj = s[rows, i], s[rows, j]
    mx, my = u[rows, i] / L, u[rows, j] / L
    Fx = (q[rows, i] * au[rows, i] - p * d1 * mx - F) / L
    Fy = (q[rows, j] * au[rows, j] - p * d1 * my - F) / L
    c2, c1 = p * (p - 1.0) * d2, p * d1 / L
    with np.errstate(invalid="ignore"):
        Fxx = (-2.0 * p * si * mx + c2 * mx * mx + 2.0 * c1 * mx - 2.0 * Fx) / L
        Fyy = (-2.0 * p * sj * my + c2 * my * my + 2.0 * c1 * my - 2.0 * Fy) / L
        Fxy = (-p * (si * my + sj * mx) + c2 * mx * my + c1 * (mx + my) - Fx - Fy) / L
    return F, Fx, Fy, Fxx, Fxy, Fyy


def _first_distinct(*columns) -> np.ndarray:
    """Indices, rising, of the first row of each distinct row of the table whose columns are ``columns``."""
    order = np.lexsort(columns[::-1])  # stable: equal rows keep their order
    rows = np.vstack(columns)[:, order]
    return np.sort(order[np.concatenate(([True], (rows[:, 1:] != rows[:, :-1]).any(axis=0)))])


def _newton_ascent(target: _FlatTarget, ls, rs, i, j):
    """Projected Newton ascent of raw BMO_p over each lane's cell-pair box, all lanes in lockstep.

    A lane moves ``(x, y)`` in ``[0, h_i] x [0, h_j]`` (see
    ``_oscillation_parts``).  A coordinate on a face whose gradient points
    out of the box is held; on the others the Hessian, shifted until its
    largest eigenvalue is at most ``−|g|/max(h_i, h_j)`` (so the step is no
    longer than the box), gives the Newton step.  Each iteration evaluates
    the step and its ``_NEWTON_CUTS`` halvings, projected onto the box, in
    one batch, and moves to the longest that rises by more than rounding,
    4 ulps.  A lane retires when none rises, when it moves less than
    ``1e-15`` of its cell widths, after ``_NEWTON_ITERS`` iterations, or
    when it holds a face that is an adjacent cell pair (``j = i + 2`` and
    ``x = 0`` or ``y = 0``), where ``_jump_candidates`` has the supremum.
    Lanes never influence each other, so a live lane at the cell pair and
    point ``(i, j, x, y)`` of an earlier live lane has its future; it
    retires as a twin before each iteration.  Returns the distinct final
    intervals of the lanes that did not retire as twins.
    """
    bp = target.bp
    hi, hj = bp[i + 1] - bp[i], bp[j + 1] - bp[j]
    steps = 0.5 ** np.arange(_NEWTON_CUTS + 1)
    k = steps.size

    def ends(x, y, i, j, hi, hj):
        return np.where(x == hi, bp[i], bp[i + 1] - x), np.where(y == hj, bp[j + 1], bp[j] + y)

    target.evaluations += ls.size
    # rows: the position, then the raw value, its gradient and Hessian there
    at = np.vstack((bp[i + 1] - ls, rs - bp[j], _oscillation_parts(target, ls, rs, i, j)))
    live = np.arange(ls.size)
    twin = np.zeros(ls.size, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        if not live.size:
            break
        elder = live[_first_distinct(i[live], j[live], *at[:2, live])]
        twin[np.setdiff1d(live, elder)] = True
        live = elder
        li, lj, lhi, lhj = i[live], j[live], hi[live], hj[live]
        lx, ly, F, gx, gy, a, b, c = at[:, live]
        # hold the faces whose gradient points out of the box
        hold_x = np.where(lx <= 0.0, gx < 0.0, (lx >= lhi) & (gx > 0.0))
        hold_y = np.where(ly <= 0.0, gy < 0.0, (ly >= lhj) & (gy > 0.0))
        gx, gy = np.where(hold_x, 0.0, gx), np.where(hold_y, 0.0, gy)
        a, b, c = np.where(hold_x, c, a), np.where(hold_x | hold_y, 0.0, b), np.where(hold_y, a, c)
        # where the curvature is infinite (p < 2 and f = m on a piece) the shift makes a gradient step
        finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c)
        a, b, c = (np.where(finite, h, 0.0) for h in (a, b, c))
        g = np.hypot(gx, gy)
        top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
        shift = np.maximum(top + g / np.maximum(lhi, lhj), 0.0)
        a, c = a - shift, c - shift
        det = a * c - b * b
        adjacent_face = (lj == li + 2) & ((hold_x & (lx <= 0.0)) | (hold_y & (ly <= 0.0)))
        go = np.flatnonzero((g > 0.0) & ~adjacent_face)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx, dy = ((b * gy - c * gx) / det)[go], ((b * gx - a * gy) / det)[go]
        live, li, lj, lhi, lhj, lx, ly, F = live[go], li[go], lj[go], lhi[go], lhj[go], lx[go], ly[go], F[go]
        # the step and its halvings, projected onto the box: (lanes, cuts + 1)
        tx = np.clip(lx[:, None] + steps * dx[:, None], 0.0, lhi[:, None])
        ty = np.clip(ly[:, None] + steps * dy[:, None], 0.0, lhj[:, None])
        tl, tr = ends(tx, ty, li[:, None], lj[:, None], lhi[:, None], lhj[:, None])
        target.evaluations += tl.size
        trial = np.vstack((tx.ravel(), ty.ravel(), _oscillation_parts(target, tl.ravel(), tr.ravel(), np.repeat(li, k), np.repeat(lj, k))))
        rise = trial[2].reshape(-1, k) > (F + 4.0 * _EPS * np.abs(F))[:, None]
        up = rise.any(axis=1)
        pick = np.flatnonzero(up) * k + rise.argmax(axis=1)[up]
        live, moved = live[up], trial[:, pick]
        small = (np.abs(moved[0] - lx[up]) <= 1e-15 * lhi[up]) & (np.abs(moved[1] - ly[up]) <= 1e-15 * lhj[up])
        at[:, live] = moved
        live = live[~small]
    ls, rs = ends(at[0], at[1], i, j, hi, hj)
    ls, rs = ls[~twin], rs[~twin]
    first = _first_distinct(ls, rs)
    return ls[first], rs[first]


def _oscillation_search(target: _FlatTarget, cfg: SearchConfig, best: _Best):
    """BMO_p with p not in {1, 2}: exact adjacent cell pairs, and Newton ascent on the others.

    Adjacent cell pairs offer their supremum's interval in closed form
    (``_jump_candidates``).  The pairs of candidate points
    (``_candidate_points``) are offered, and the best of them with ends
    in non-adjacent cells seed ``_newton_ascent``, whose final intervals
    are offered with their values through ``value_batch``.
    """
    jl, jr = _jump_candidates(target)
    target.evaluations += jl.size
    best.offer_array(target.value_batch(jl, jr), jl, jr)
    ls, rs, i, j = _chunked_pair_scan(target, _candidate_points(target.f), cfg, best)
    # no leaders (no cell pair two or more cells apart, as on two pieces): nothing to ascend
    if ls.size:
        ls, rs = _newton_ascent(target, ls, rs, i, j)
        target.evaluations += ls.size
        best.offer_array(target.value_batch(ls, rs), ls, rs)


def _subinterval_search(target: _FlatTarget, cfg: SearchConfig, scan: list | None, lefts: int | None = None):
    """``(lower, witness, evaluations, ceiling)`` of a flat target: the best subinterval, and a proven raw ceiling over all of them or None.

    Objectives with prefix transforms enumerate cell pairs exactly, those
    whose left cell is below ``lefts`` (all by default), and certified
    searches get the ceiling; BMO_p with p not in {1, 2} takes its jumps
    in closed form and ascends from its leading candidates
    (``_oscillation_search``), and gets None.  Every offered candidate
    joins ``scan`` when it is a list (see ``_Best``).  The chosen
    candidate is re-evaluated through exact overlaps, so ``lower`` is its
    witness's value.
    """
    best, ceiling = _Best(scan), None
    if target.objective.prefix_transforms() is not None:
        ceiling = _enumerate_pairs(target, cfg, best, target.values.size if lefts is None else lefts)
    else:
        _oscillation_search(target, cfg, best)
    wl, wr, _ = best.finish()
    lower = float(target.value_batch(np.array([wl]), np.array([wr]))[0])
    return lower, (wl, wr), target.evaluations, ceiling


def _flat_interval_search(f: StepFunction, objective: _Objective, cfg: SearchConfig, scan: list | None):
    lower, witness, evaluations, ceiling = _subinterval_search(_FlatTarget(f, objective), cfg, scan)
    upper = None
    if cfg.certify:
        if ceiling is None:
            bound = objective.range_bound(float(f.values.min()), float(f.values.max()))
        else:
            bound = objective.value_from_raw(ceiling)
        upper = max(bound, lower)
    return lower, witness, evaluations, upper


# -- circle targets -----------------------------------------------------------------


def _geom_lengths(lo: float, hi: float) -> np.ndarray:
    """Lengths from ``lo`` to ``hi``, ``_PER_OCTAVE`` per octave, evenly in log scale."""
    lo = max(lo, 1e-300)
    if hi <= lo:
        return np.array([hi])
    count = max(2, int(math.ceil(_PER_OCTAVE * math.log2(hi / lo))) + 1)
    return np.geomspace(lo, hi, count)


def _long_arc_grid(t0: float, cfg: SearchConfig):
    """Arcs of 2 to ``max_periods`` periods, starting at ``t0`` plus dyadic offsets."""
    lengths = _geom_lengths(2.0, float(cfg.max_periods))
    offsets = np.arange(0, 2**_GRID_LEVEL) / 2.0**_GRID_LEVEL
    ls = t0 + np.tile(offsets, lengths.size)
    return ls, ls + np.repeat(lengths, offsets.size)


def _certificate(objective: _Objective, cfg: SearchConfig, values, period: DiscreteDistribution, raw_max: float, lower: float):
    """Upper bound from the largest raw value seen, one period's included, plus a TV slack.

    Arcs of at least ``r_long`` periods have distributions within total
    variation ``2 / (r_long + 1)`` of one period.  None unless ``certify``.
    """
    if not cfg.certify:
        return None
    raw_max = max(raw_max, objective.raw_from_dist(period))
    tv = 2.0 / (cfg.r_long + 1.0)
    slack = objective.tv_slack(float(values.min()), float(values.max()), tv)
    return max(objective.value_from_raw(raw_max + slack), lower)


def _flat_circle_search(f: StepFunction, objective: _Objective, cfg: SearchConfig, scan: list | None):
    t0 = float(f.breakpoints[0])
    flat = _FlatTarget(f.restrict((t0, t0 + 2.0)), objective)
    # a pair of two second-period cells is a one-period translate of a
    # first-period pair, which wins ties by its smaller left end
    lower, witness, evaluations, ceiling = _subinterval_search(flat, cfg, scan, f.piece_count)
    best = _Best()
    best.offer(lower, *witness)

    ls, rs = _long_arc_grid(t0, cfg)
    raws = objective.raw_from_parts(f.overlap_rows(ls, rs), _centered(f, objective), rs - ls)
    best.offer_array(objective.value_from_raw(raws), ls, rs)
    if ceiling is None:
        # nothing enumerated: the value range bounds every arc, long ones included
        upper = max(objective.range_bound(float(f.values.min()), float(f.values.max())), best.value) if cfg.certify else None
    else:
        upper = _certificate(objective, cfg, f.values, f.distribution((t0, t0 + 1.0)), max(ceiling, float(raws.max())), best.value)
    # a long arc may top the short witness by less than the tie tolerance:
    # report the chosen witness's own value
    wl, wr, wv = best.finish()
    return wv, (wl, wr), evaluations + ls.size, upper


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
    of child witnesses through one representative copy.  A node with one
    atom gets none of these and no query: every arc of it has the value of
    its distribution, and its witness is its carrier (a circle's base
    period), so the walk never enters the nodes below it.  The junction
    scans and long-arc grids of every node the walk enters run first, in
    lockstep (see ``_lockstep_scans``); each node takes its offers where
    its walk reaches them.
    Candidates whose embedding would collapse below float
    resolution still contribute to the certified raw maximum; only
    anchored candidates (re-evaluated at the node itself) feed the
    reported lower bound and witness.
    """

    def __init__(self, objective: _Objective, cfg: SearchConfig):
        self.objective = objective
        self.cfg = cfg
        self.evaluations = 0
        self.raw_max = -math.inf
        self._memo: dict[int, tuple[float, tuple[float, float] | None]] = {}
        self._scans: dict[int, tuple] = {}

    def raws(self, groups: list) -> np.ndarray:
        """Raw functional of every arc of ``groups``, ``(node, ls, rs)`` triples, in one multi-root query."""
        raw = np.concatenate([
            self.objective.raw_from_parts(m / m.sum(axis=1)[:, None], node.atom_values, 1.0)
            for (node, _, _), m in zip(groups, _query_masses(groups))
        ])
        self.evaluations += raw.size
        self.raw_max = max(self.raw_max, float(raw.max()))
        return raw

    def _offer_one(self, node: ConstructExpr, l: float, r: float, best: _Best):
        """Offer one arc, through a single query: embedded witnesses."""
        self.evaluations += 1
        raw = self.objective.raw_from_dist(dag_query(node, (l, r)).distribution)
        self.raw_max = max(self.raw_max, raw)
        best.offer(self.objective.value_from_raw(raw), l, r)

    def run(self, root: ConstructExpr) -> tuple[float, tuple[float, float] | None]:
        """Scan every junction and long-arc grid of the DAG in lockstep, then walk it from ``root``."""
        # the nodes the walk below searches through their copies and
        # junctions: those with children and more than one atom, reached
        # from the root through such nodes
        walked, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in walked and node.children and node.atom_values.size > 1:
                walked.add(id(node))
                stack.extend(node.children)
        self._scans = self._lockstep_scans([node for node in root.nodes if id(node) in walked])
        return self.search(root)

    def search(self, node: ConstructExpr) -> tuple[float, tuple[float, float] | None]:
        key = id(node)
        if key in self._memo:
            return self._memo[key]
        if isinstance(node, LeafExpr) and node.atom_values.size > 1:
            # the leaf's proven ceiling where its objective enumerates, else its lower bound
            lower, witness, evaluations, ceiling = _subinterval_search(_FlatTarget(node.function, self.objective), self.cfg, None)
            self.evaluations += evaluations
            self.raw_max = max(self.raw_max, self.objective.raw_of_value(lower) if ceiling is None else ceiling)
            out = (lower, witness)
        else:
            # the full carrier or base period holds the node distribution
            # exactly, and on a one-atom node so does every arc
            self.evaluations += 1
            raw = self.objective.raw_from_dist(node.distribution())
            self.raw_max = max(self.raw_max, raw)
            best = _Best()
            best.offer(self.objective.value_from_raw(raw), *node.content_bounds())
            if node.atom_values.size > 1:
                self._search_copies(node, best)
            found = best.finish()
            out = (best.value, None if found is None else found[:2])
        self._memo[key] = out
        return out

    def _search_copies(self, node, best: _Best):
        """Embedded child witnesses, the node's junction offers, and long arcs on circles."""
        for child, lo, hi in _layout(node)[1]:
            child_best, child_wit = self.search(child)
            self.raw_max = max(self.raw_max, self.objective.raw_of_value(child_best))
            self._embed(node, child, child_wit, lo, hi, best)
        offers, long_raws = self._scans.pop(id(node))
        best.offer_array(*offers)
        if node.is_circle:
            best.offer_array(self.objective.value_from_raw(long_raws), *_long_arc_grid(0.0, self.cfg))

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

    def _lockstep_scans(self, nodes: list) -> dict[int, tuple]:
        """The junction scans and long-arc grids of all ``nodes``, in lockstep.

        Around each junction ``c``: arcs on a (length x offset) grid, then
        the 4 best of them refined by block golden section, first in
        log-length, then in ``t``.  An arc ``(c, t, ell)`` has length
        ``ell`` with the fraction ``t`` of it left of ``c``, clipped to the
        carrier of an interval node.  The grids of all junctions of all
        nodes and the long-arc grids of all circle nodes are one multi-root
        query, and the leaders of all junctions refine in lockstep, one
        query per round.  The refined arcs are the rounds' best probes, so
        their values need no query of their own; they count as evaluations
        all the same.  Returns, by node ``id``, the node's junction offers
        as the arrays ``(values, lefts, rights)``, and the raw values of its
        long-arc grid (None on interval nodes).
        """
        if not nodes:
            return {}
        cfg = self.cfg
        offsets = np.arange(1, 2**_GRID_LEVEL) / 2.0**_GRID_LEVEL
        jc, jlo, jnode, lengths = [], [], [], []  # per junction: center, shortest length, node, grid lengths
        clip_lo, clip_hi, scale_hi = [], [], []  # per node
        grids: dict = {}  # (shortest, longest) -> grid lengths
        for i, node in enumerate(nodes):
            full, _, junctions = _layout(node)
            hi = 2.0 if node.is_circle else full[1] - full[0]
            lo_clip, hi_clip = (-math.inf, math.inf) if node.is_circle else full
            clip_lo.append(lo_clip)
            clip_hi.append(hi_clip)
            scale_hi.append(hi)
            for c, s in junctions:
                jc.append(c)
                jlo.append(s)
                jnode.append(i)
                span = (max(s, 1e-13), hi)
                if span not in grids:
                    grids[span] = _geom_lengths(*span)
                lengths.append(grids[span])
        jc, jnode, clip_lo, clip_hi = np.array(jc), np.array(jnode, dtype=int), np.array(clip_lo), np.array(clip_hi)

        def ends(js, ts, ells):
            # arcs around the junctions js, clipped to interval carriers (a
            # circle node's clip is infinite), and the ones not clipped empty
            cs, ni = jc[js], jnode[js]
            ls = np.maximum(cs - ts * ells, clip_lo[ni])
            rs = np.minimum(cs + (1.0 - ts) * ells, clip_hi[ni])
            return ls, rs, (rs - ls > 1e-15).nonzero()[0]

        def arcs(js, ts, ells, extra=()):
            # the arcs' values, -inf where clipped empty, in one query with
            # the groups ``extra``, whose raw values come back too
            ls, rs, live = ends(js, ts, ells)
            vs = np.full(ls.size, -math.inf)
            # arcs come node by node: one group per node
            ni, ll, rr = jnode[js[live]], ls[live], rs[live]
            starts = np.flatnonzero(np.diff(ni, prepend=-1)).tolist()
            groups = [(nodes[ni[s]], ll[s:e], rr[s:e]) for s, e in zip(starts, [*starts[1:], live.size])]
            raw = self.raws([*groups, *extra]) if groups or extra else np.zeros(0)
            vs[live] = self.objective.value_from_raw(raw[: live.size])
            return ls, rs, vs, raw[live.size :]

        # the long-arc grids of the circle nodes join the junction grid's query
        gl, gr = _long_arc_grid(0.0, cfg)
        circles = [node for node in nodes if node.is_circle]
        owner = np.repeat(np.arange(jc.size), [g.size * offsets.size for g in lengths])
        ls, rs, vs, long_raws = arcs(
            owner, np.tile(offsets, owner.size // offsets.size), np.repeat(np.concatenate(lengths), offsets.size),
            [(node, gl, gr) for node in circles],
        )
        # the 4 best grid arcs of every junction are the lanes of the refinement
        ranked = np.lexsort((-vs, owner))
        lanes = ranked[np.arange(owner.size) - np.searchsorted(owner, owner[ranked]) < 4]
        lanes = lanes[vs[lanes] > -math.inf]
        lj = owner[lanes]
        lc, ell0 = jc[lj], rs[lanes] - ls[lanes]
        t0 = np.minimum(np.maximum((lc - ls[lanes]) / ell0, 0.0), 1.0)
        x0 = [math.log(e) for e in ell0.tolist()]
        log_lo = [math.log(max(jlo[j], 1e-13)) for j in lj.tolist()]
        log_hi = [math.log(scale_hi[i]) for i in jnode[lj].tolist()]

        def exps(xs):
            # math.exp, which np.exp does not match in every last bit
            return np.fromiter(map(math.exp, xs.ravel().tolist()), float, xs.size).reshape(xs.shape)

        def lane_values(ts, ells):
            # values of a (lanes, m) array of arcs, row k around the junction of lane k
            ts, ells = np.broadcast_arrays(ts, ells)
            js = np.broadcast_to(lj[:, None], ts.shape)
            return arcs(js.ravel(), ts.ravel(), ells.ravel())[2].reshape(ts.shape)

        lo, hi = [max(x - 2.0, a) for x, a in zip(x0, log_lo)], [min(x + 2.0, b) for x, b in zip(x0, log_hi)]
        lx, _ = _golden_max(lambda xs: lane_values(t0[:, None], exps(xs)), lo, hi, cfg.refine_iters)
        ell1 = exps(lx)
        tt, fv = _golden_max(lambda ts: lane_values(ts, ell1[:, None]), np.zeros(lanes.size), np.ones(lanes.size), cfg.refine_iters)
        # the refined arcs are the best probes, already evaluated; they still count
        fl, fr, live = ends(lj, tt, ell1)
        self.evaluations += live.size
        # the offers of every node: its grid arcs, then its refined arcs
        ni = jnode[np.concatenate((owner, lj))]
        keep = np.concatenate((vs, fv)) > -math.inf
        order = np.argsort(ni[keep], kind="stable")
        v, l, r = (np.concatenate(pair)[keep][order] for pair in ((vs, fv), (ls, fl), (rs, fr)))
        cuts = np.cumsum(np.bincount(ni[keep], minlength=len(nodes)))[:-1]
        long_of = {id(node): long_raws[k * gl.size : (k + 1) * gl.size] for k, node in enumerate(circles)}
        splits = zip(*(np.split(a, cuts) for a in (v, l, r)))
        return {id(node): (offers, long_of.get(id(node))) for node, offers in zip(nodes, splits)}


def _dag_search(expr: ConstructExpr, objective: _Objective, cfg: SearchConfig):
    engine = _DagSearch(objective, cfg)
    lower, witness = engine.run(expr)
    upper = _certificate(objective, cfg, expr.atom_values, expr.distribution(), engine.raw_max, lower)
    return lower, witness, engine.evaluations, upper


# -- public operations ------------------------------------------------------------------


def _finish(cfg: SearchConfig, lower: float, witness, evaluations: int, upper, scan: list | None = None) -> SearchReport:
    """The report of a search; ``scan`` holds the ``(left, right, length, value)`` batches of its scan, if collected."""
    if not math.isfinite(lower) or witness is None:
        raise InputError("search produced no candidates")
    return SearchReport(
        lower=lower,
        witness=IntervalQuery(*witness),
        evaluations=evaluations,
        config=cfg,
        upper=upper,
        scan=[tuple(row) for row in np.concatenate(scan)] if scan else [],
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
    scan = [] if collect_scan else None
    return _finish(cfg, *flat_search(target, objective, cfg, scan), scan)


def bmo_norm(target, p: float, cfg: SearchConfig | None = None, collect_scan: bool = False) -> SearchReport:
    """Supremum of the centered p-oscillation over subintervals of an interval target."""
    objective = _bmo_objective(p)
    if _is_circle(target):
        raise InputError("target carries circle content; use the circle search")
    return _search(target, objective, cfg, collect_scan)


def circle_bmo_norm(target, p: float, cfg: SearchConfig | None = None, collect_scan: bool = False) -> SearchReport:
    """Supremum of the centered p-oscillation over all arcs of a circle target."""
    objective = _bmo_objective(p)
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
