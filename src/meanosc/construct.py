"""Lazy expression DAG for homogenized, glued, and periodized constructions.

Deeply nested constructions (the output of the martingale compiler) would
materialize exponentially many pieces, so they are represented as a DAG of
five node kinds: a flat leaf, a constant, a geometric-tiling homogenization
of a child, a two-arc circle gluing, and a periodization.  Interval queries
are answered a batch at a time: every node kind maps an array of ranges to
a ``(ranges, atoms)`` mass matrix.  Cells wholly inside a range contribute
the cached node distribution scaled by length, and the partial end cells of
all ranges of the batch recurse into the child in one call.  The cost of a
batch is therefore linear in construction depth, independent of the
(possibly astronomical) realized piece count; a single query is a batch of
one.

Homogenization tiles the carrier ``[-1/2, 1/2]`` with cells shrinking
geometrically by the ratio ``lam`` toward both endpoints, each cell holding
a rescaled copy of the child.  The infinite tiling is truncated at level
``levels`` and the two residual end intervals each hold one more copy, so
the node distribution equals the child distribution exactly; only the
length ratio at the last junction degrades from ``lam`` to
``lam / (1 - lam)``.

A gluing places homogenized content of its right child on ``[0, alpha)``
and of its left child on ``[alpha, 1)``, extended periodically, so the node
distribution is the exact mixture ``(1-alpha) * left + alpha * right``.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import DiscreteDistribution
from .errors import BudgetError, InputError, InternalError
from .stepfun import CIRCLE, Interval, StepFunction, as_query

__all__ = [
    "ConstructExpr",
    "LeafExpr",
    "ConstExpr",
    "HomExpr",
    "GlueExpr",
    "PeriodizeExpr",
    "leaf",
    "constant",
    "homogenize",
    "glue",
    "periodize",
    "default_levels",
    "query",
    "query_batch",
    "QueryBatch",
    "materialize",
    "required_pieces",
    "QueryResult",
    "expr_from_dict",
]

_ATOM_TOL = 1e-12
_BATCH_BUDGET = 1 << 16  # floats per (ranges x atoms) mass matrix of one batch chunk
# read-only cell-bound tables by (lam, levels), alive while a HomExpr holds one;
# a compiled martingale repeats one schedule at every gluing
_CELL_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def default_levels(lam: float, floor: float = 1e-3) -> int:
    """Truncation level making the residual cells shorter than ``floor``."""
    if not 0.0 < lam < 1.0:
        raise InputError(f"homogenization ratio must lie in (0, 1), got {lam}")
    return max(1, int(math.ceil(math.log(floor) / math.log(lam))))


def _merge_values(values: np.ndarray) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    keep = np.concatenate(([True], np.diff(values) > _ATOM_TOL))
    out = values[keep]
    out.setflags(write=False)
    return out

def _contiguous_span(mapping: np.ndarray):
    if mapping.size == 0:
        return None
    start = int(mapping[0])
    if np.array_equal(mapping, np.arange(start, start + mapping.size)):
        return (start, start + mapping.size)
    return None


def _index_map(child_vals: np.ndarray, parent_vals: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(parent_vals, child_vals)
    idx = np.clip(idx, 0, parent_vals.size - 1)
    left = np.clip(idx - 1, 0, parent_vals.size - 1)
    use_left = np.abs(parent_vals[left] - child_vals) <= np.abs(
        parent_vals[idx] - child_vals
    )
    idx = np.where(use_left, left, idx)
    if np.any(np.abs(parent_vals[idx] - child_vals) > 10 * _ATOM_TOL):
        raise InternalError("atom table mismatch between child and parent")
    return idx


@dataclass(frozen=True)
class QueryResult:
    """Outcome of an interval query against a construction node.

    ``value`` is the requested functional of the exact restriction
    distribution (``None`` when the raw distribution was requested),
    ``depth`` the deepest recursion level touched, ``partial_end_weight``
    the query-mass fraction resolved through partial end copies at the
    outermost decomposition, and ``nodes_visited`` an operation-count
    telemetry figure.
    """

    value: float | None
    distribution: DiscreteDistribution
    depth: int
    partial_end_weight: float
    nodes_visited: int


class _Ctx:
    """Recursion guard and per-row telemetry of one batched query.

    Every node call records its recursion level and the query rows its
    ranges belong to; a row that reaches a node through two partial end
    cells counts two visits, as two separate queries would.
    """

    __slots__ = ("depth", "limit", "trail")

    def __init__(self, limit: int):
        self.depth = 0
        self.limit = limit
        self.trail: list = []

    def enter(self, rows: np.ndarray):
        self.depth += 1
        if self.depth > self.limit:
            raise InternalError("query recursion exceeded 10x construction depth")
        self.trail.append((self.depth, rows))

    def leave(self):
        self.depth -= 1

    def stats(self, n: int):
        """Node visits and deepest recursion level of each of the ``n`` query rows."""
        rows = np.concatenate([r for _, r in self.trail])
        levels = np.repeat([d for d, _ in self.trail], [r.size for _, r in self.trail])
        deepest = np.zeros(n, dtype=int)
        np.maximum.at(deepest, rows, levels)
        return np.bincount(rows, minlength=n), deepest


class ConstructExpr:
    """Base class of all construction nodes.  Nodes are immutable."""

    kind: str = "abstract"

    # populated by subclasses
    atom_values: np.ndarray
    dist_vec: np.ndarray
    depth: int

    @property
    def is_circle(self) -> bool:
        return self.carrier is None

    # Interval carrier bounds, or None for circle nodes.
    carrier: tuple[float, float] | None = None

    def content_bounds(self) -> tuple[float, float]:
        """Bounds of this node's content when embedded as a copy.

        Circle nodes expose their base period ``[0, 1]``.  Any one-period
        window would carry the same distribution; aligning the window with
        the period keeps partial-copy recursion linear in depth, because a
        copy end then coincides with a period end of the child.
        """
        if self.carrier is not None:
            return self.carrier
        return (0.0, 1.0)

    def distribution(self) -> DiscreteDistribution:
        """The node-level value distribution (cached, exact)."""
        mask = self.dist_vec > 0
        return DiscreteDistribution._presorted(self.atom_values[mask], self.dist_vec[mask])

    def _measure_batch(self, q: np.ndarray, rows: np.ndarray, ctx: _Ctx):
        """Masses of the ranges ``[q[0, i], q[1, i]]`` in length units, one row each.

        ``q`` has shape ``(2, n)`` and ``rows`` names the query row each
        range serves.  Returns the ``(n, atoms)`` mass matrix and, at the
        outermost call only, the length of each range resolved through
        partial end copies.
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(depth={self.depth})"


class LeafExpr(ConstructExpr):
    kind = "leaf"

    def __init__(self, f: StepFunction):
        if f.is_circle:
            raise InputError("leaf nodes carry interval step functions")
        self.function = f
        self.carrier = (float(f.breakpoints[0]), float(f.breakpoints[-1]))
        self.atom_values = _merge_values(f.values)
        self._value_idx = _index_map(f.values, self.atom_values)
        vec = np.zeros(self.atom_values.size)
        np.add.at(vec, self._value_idx, f.lengths / (f.breakpoints[-1] - f.breakpoints[0]))
        vec.setflags(write=False)
        self.dist_vec = vec
        self.depth = 0

    def _measure_batch(self, q, rows, ctx):
        ctx.enter(rows)
        bp = self.function.breakpoints
        out = np.zeros((rows.size, self.atom_values.size))
        # the (ranges x pieces) overlaps in slices of at most _BATCH_BUDGET floats (or one range)
        step = max(1, _BATCH_BUDGET // self.function.piece_count)
        for s in range(0, rows.size, step):
            l, r = q[:, s : s + step, None]
            ov = np.maximum(np.minimum(r, bp[1:]) - np.maximum(l, bp[:-1]), 0.0)
            np.add.at(out[s : s + step], (slice(None), self._value_idx), ov)
        partial = np.zeros(rows.size) if ctx.depth == 1 else None
        ctx.leave()
        return out, partial

    def to_dict(self) -> dict:
        return {"kind": "leaf", "function": self.function.to_dict()}


class ConstExpr(ConstructExpr):
    kind = "const"

    def __init__(self, value: float):
        if not np.isfinite(value):
            raise InputError("constant value must be finite")
        self.value = float(value)
        self.carrier = (-0.5, 0.5)
        self.atom_values = _merge_values(np.array([self.value]))
        self.dist_vec = np.array([1.0])
        self.dist_vec.setflags(write=False)
        self.depth = 0

    def _measure_batch(self, q, rows, ctx):
        ctx.enter(rows)
        partial = np.zeros(rows.size) if ctx.depth == 1 else None
        ctx.leave()
        return (q[1] - q[0])[:, None], partial

    def to_dict(self) -> dict:
        return {"kind": "const", "value": self.value}


class HomExpr(ConstructExpr):
    """Geometric tiling of ``[-1/2, 1/2]`` by rescaled copies of the child."""

    kind = "hom"

    def __init__(self, child: ConstructExpr, lam: float, levels: int):
        if not 0.0 < lam < 1.0:
            raise InputError(f"homogenization ratio must lie in (0, 1), got {lam}")
        if levels < 1:
            raise InputError(f"truncation level must be >= 1, got {levels}")
        self.child = child
        self.lam = float(lam)
        self.levels = int(levels)
        self.carrier = (-0.5, 0.5)
        self.atom_values = child.atom_values
        self.dist_vec = child.dist_vec
        self.depth = child.depth + 1

    # -- cell geometry -----------------------------------------------------

    def _ck(self, k: int) -> float:
        # boundary (1 - lam^k)/2 of the k-th cell on the positive side
        return 0.5 * (1.0 - self.lam**k)

    def _cell_bounds(self, side: int, k: int) -> tuple[float, float]:
        if k == self.levels + 1:
            lo, hi = self._ck(self.levels), 0.5
        else:
            lo, hi = self._ck(k - 1), self._ck(k)
        if side < 0:
            lo, hi = -hi, -lo
        return lo, hi

    @cached_property
    def _bounds(self) -> np.ndarray:
        """All ``2 * levels + 3`` cell bounds, ``-1/2, -c_K, ..., 0, ..., c_K, 1/2``.

        Built with ``_ck``'s arithmetic, so they equal ``_cell_bounds``
        bitwise; built on the first query, not at construction, and shared
        by every live node with the same ``lam`` and ``levels``.
        """
        table = _CELL_TABLES.get((self.lam, self.levels))
        if table is None:
            pos = [self._ck(k) for k in range(1, self.levels + 1)]
            table = np.array([-0.5, *(-c for c in reversed(pos)), 0.0, *pos, 0.5])
            table.setflags(write=False)
            _CELL_TABLES[(self.lam, self.levels)] = table
        return table

    def _measure_batch(self, q, rows, ctx):
        ctx.enter(rows)
        n = rows.size
        bounds = self._bounds
        # cell j is [bounds[j], bounds[j + 1]]; a point on a bound belongs to the cell it starts
        j = bounds[1:-1].searchsorted(q, "right")
        lo, hi = bounds[j], bounds[j + 1]
        (l, r), (al, ar), (bl, br) = q, lo, hi
        same = j[0] == j[1]
        # the whole cells run from wl to wr; wl == l when l starts its cell
        wl = np.where(l > al, bl, al)
        inner = r < br
        wr = np.where(inner, ar, br)
        # one copy request per end, left ends then right ends: the whole
        # range when it sits in one cell, else each partial end cell; a
        # request with r == l is empty
        req = np.concatenate((l, ar, np.where(same, r, wl), np.where(inner & ~same, r, ar))).reshape(2, -1)
        sub = _copy_measure(self.child, lo.ravel(), hi.ravel(), req, np.concatenate((rows, rows)), ctx)
        out = sub[:n]
        out += sub[n:]
        out += np.where(same, 0.0, wr - wl)[:, None] * self.dist_vec
        partial = None
        if ctx.depth == 1:
            partial = np.where(same, r - l, (wl - l) + (r - wr))
        ctx.leave()
        return out, partial

    def to_dict(self) -> dict:
        return {
            "kind": "hom",
            "child": self.child.to_dict(),
            "lambda_hom": self.lam,
            "levels": self.levels,
        }


class GlueExpr(ConstructExpr):
    """Circle function gluing homogenized copies of two children.

    The right child's homogenization occupies ``[0, alpha)`` and the left
    child's occupies ``[alpha, 1)``, so the node distribution is the exact
    mixture ``(1 - alpha) * dist(left) + alpha * dist(right)``.
    """

    kind = "glue"

    def __init__(self, e0: ConstructExpr, e1: ConstructExpr, alpha: float, lam: float, levels: int):
        if not 0.0 < alpha < 1.0:
            raise InputError(f"gluing weight must lie in (0, 1), got {alpha}")
        self.e0 = e0
        self.e1 = e1
        self.alpha = float(alpha)
        self.hom0 = HomExpr(e0, lam, levels)
        self.hom1 = HomExpr(e1, lam, levels)
        self.lam = float(lam)
        self.levels = int(levels)
        self.carrier = None
        self.atom_values = _merge_values(
            np.concatenate((e0.atom_values, e1.atom_values))
        )
        map0 = _index_map(e0.atom_values, self.atom_values)
        map1 = _index_map(e1.atom_values, self.atom_values)
        # (copy, its range in the base period, child atom -> node atom map, contiguous span or None)
        self._arms = (
            (self.hom1, 0.0, self.alpha, map1, _contiguous_span(map1)),
            (self.hom0, self.alpha, 1.0, map0, _contiguous_span(map0)),
        )
        vec = np.zeros(self.atom_values.size)
        np.add.at(vec, map0, (1.0 - self.alpha) * e0.dist_vec)
        np.add.at(vec, map1, self.alpha * e1.dist_vec)
        vec.setflags(write=False)
        self.dist_vec = vec
        self.depth = max(e0.depth, e1.depth) + 1

    def _period_measure_batch(self, u, rows, ctx):
        """Masses over ``[u[0, i], u[1, i]]`` within the base period ``[0, 1]``, split by arm."""
        out = None  # allocated after a recursion returns, so deep recursions do not stack it
        for hom, a, b, mapping, span in self._arms:
            # clamped to the arm; a range that misses it comes out empty
            arm = np.minimum(np.maximum(u, a), b)
            live = (arm[1] > arm[0]).nonzero()[0]
            if live.size:
                sub = _copy_measure(hom, a, b, arm[:, live], rows[live], ctx)
                if out is None:
                    out = np.zeros((rows.size, self.atom_values.size))
                if span is None:
                    np.add.at(out, (live[:, None], mapping), sub)
                else:
                    out[live, span[0] : span[1]] += sub
        return np.zeros((rows.size, self.atom_values.size)) if out is None else out

    def _measure_batch(self, q, rows, ctx):
        return _circle_measure(self, q, rows, ctx)

    def to_dict(self) -> dict:
        return {
            "kind": "glue",
            "left": self.e0.to_dict(),
            "right": self.e1.to_dict(),
            "alpha": self.alpha,
            "lambda_hom": self.lam,
            "levels": self.levels,
        }


class PeriodizeExpr(ConstructExpr):
    """Periodic extension of an interval-carried child, period 1."""

    kind = "periodize"

    def __init__(self, child: ConstructExpr):
        if child.is_circle:
            raise InputError("child is already a circle function")
        self.child = child
        self.carrier = None
        self.atom_values = child.atom_values
        self.dist_vec = child.dist_vec
        self.depth = child.depth + 1

    def _period_measure_batch(self, u, rows, ctx):
        return _copy_measure(self.child, 0.0, 1.0, u, rows, ctx)

    def _measure_batch(self, q, rows, ctx):
        return _circle_measure(self, q, rows, ctx)

    def to_dict(self) -> dict:
        return {"kind": "periodize", "child": self.child.to_dict()}


def _copy_measure(child: ConstructExpr, a, b, q: np.ndarray, rows: np.ndarray, ctx: _Ctx) -> np.ndarray:
    """Mass of each range ``q[:, i]`` inside the copy of ``child`` that occupies ``[a, b]``.

    The ranges map affinely onto the child's content bounds, the child
    measures the non-empty ones in one call, and the masses are rescaled to
    parent length units.  ``a`` and ``b`` are scalars or one per range.
    """
    A, B = child.content_bounds()
    m = A + (q - a) * ((B - A) / (b - a))
    # snap copy-aligned ends exactly so recursion stays period-aligned (a
    # left end l <= a lands on A through the clamp)
    m[1][q[1] >= b] = B
    np.maximum(np.minimum(m, B, out=m), A, out=m)
    live = (m[1] > m[0]).nonzero()[0]
    if live.size == rows.size:
        sub, _ = child._measure_batch(m, rows, ctx)
        return sub * ((q[1] - q[0]) / (m[1] - m[0]))[:, None]
    if not live.size:
        return np.zeros((rows.size, child.atom_values.size))
    m, q = m[:, live], q[:, live]
    sub, _ = child._measure_batch(m, rows[live], ctx)
    out = np.zeros((rows.size, child.atom_values.size))
    out[live] = sub * ((q[1] - q[0]) / (m[1] - m[0]))[:, None]
    return out


def _circle_measure(node, q: np.ndarray, rows: np.ndarray, ctx: _Ctx):
    """Shared period decomposition for circle nodes.

    A range with no period start strictly inside sits in one period and is
    one piece.  Any other range splits into a head piece up to its first
    period end and a tail piece from its last period start (either may be
    empty), and the whole periods between them take the node distribution.
    All pieces go to one call of the node's ``_period_measure_batch``.
    """
    ctx.enter(rows)
    n = rows.size
    fl = np.floor(q)  # the start's period, and the end's last period start
    first_end = np.ceil(q[0])
    one = (first_end >= q[1]) | (fl[1] <= q[0])
    u = q - fl[0]
    # heads then tails: a head ends at the range end, else at its period
    # end (1) or, for a range starting on a period start, nowhere (0);
    # tails start at 0
    many = ~one
    pieces = np.concatenate((u[0], np.zeros(n), np.where(one, u[1], first_end - fl[0]), (q[1] - fl[1]) * many)).reshape(2, -1)
    sub = node._period_measure_batch(pieces, np.concatenate((rows, rows)), ctx)
    out = sub[:n]
    out += sub[n:]
    out += ((fl[1] - first_end) * many)[:, None] * node.dist_vec
    partial = None
    if ctx.depth == 1:
        partial = np.where(one, q[1] - q[0], (first_end - q[0]) + (q[1] - fl[1]))
    ctx.leave()
    return out, partial


# -- public construction surface ------------------------------------------------


def leaf(f: StepFunction) -> LeafExpr:
    """Wrap a flat interval step function as a construction leaf."""
    return LeafExpr(f)


def constant(value: float) -> ConstExpr:
    """A constant function (carrier ``[-1/2, 1/2]``)."""
    return ConstExpr(value)


def homogenize(e: ConstructExpr, lam: float = 0.9, levels: int | None = None) -> HomExpr:
    """Homogenization node: tiles ``[-1/2, 1/2]`` with rescaled copies of ``e``.

    The node distribution equals ``dist(e)`` exactly; neighbor cells have
    length ratio ``lam`` except at the truncation junction.
    """
    if levels is None:
        levels = default_levels(lam)
    return HomExpr(e, lam, levels)


def glue(
    e0: ConstructExpr,
    e1: ConstructExpr,
    alpha: float,
    lam: float = 0.9,
    levels: int | None = None,
) -> GlueExpr:
    """Circle gluing with ``dist = (1-alpha) dist(e0) + alpha dist(e1)``.

    ``e1``'s homogenized content occupies ``[0, alpha)``; ``e0``'s occupies
    ``[alpha, 1)``.
    """
    if levels is None:
        levels = default_levels(lam)
    return GlueExpr(e0, e1, alpha, lam, levels)


def periodize(e: ConstructExpr) -> ConstructExpr:
    """Period-1 extension of an interval-carried node (no-op on circle nodes)."""
    if e.is_circle:
        return e
    return PeriodizeExpr(e)


# -- queries ---------------------------------------------------------------------


class QueryBatch:
    """Outcome of a batch of interval queries, one row per query.

    ``masses`` holds each query's restriction masses over ``atom_values`` in
    length units; ``depth``, ``partial_end_weight`` and ``nodes_visited``
    are per row what :class:`QueryResult` reports for one query (the first
    two are tallied on first access).
    """

    def __init__(self, atom_values: np.ndarray, masses: np.ndarray, partial_end_weight: np.ndarray, ctxs: list):
        self.atom_values = atom_values
        self.masses = masses
        self.partial_end_weight = partial_end_weight
        self._ctxs = ctxs  # (row count, _Ctx) per chunk

    @cached_property
    def _telemetry(self):
        stats = [ctx.stats(n) for n, ctx in self._ctxs] or [(np.zeros(0, int), np.zeros(0, int))]
        return tuple(np.concatenate(col) for col in zip(*stats))

    @property
    def nodes_visited(self) -> np.ndarray:
        return self._telemetry[0]

    @property
    def depth(self) -> np.ndarray:
        return self._telemetry[1]

    def result(self, i: int, functional=None) -> QueryResult:
        """Row ``i`` as a :class:`QueryResult` (see :func:`query` for ``functional``)."""
        vec = self.masses[i]
        mask = vec > 0
        dist = DiscreteDistribution._presorted(self.atom_values[mask], vec[mask] / vec.sum())
        if functional is None:
            value = None
        elif callable(functional):
            value = float(functional(dist))
        else:
            from .distributions import dist_functional

            name, params = functional
            value = float(dist_functional(dist, name, **params))
        return QueryResult(
            value=value,
            distribution=dist,
            depth=int(self.depth[i]),
            partial_end_weight=float(self.partial_end_weight[i]),
            nodes_visited=int(self.nodes_visited[i]),
        )


def query_batch(e: ConstructExpr, lefts, rights) -> QueryBatch:
    """Exact interval queries ``[lefts[i], rights[i]]`` against a construction node, all at once.

    The batch runs in chunks of at most ``_BATCH_BUDGET`` mass-matrix
    floats.  Rows never influence each other, so a batch of n queries
    equals n batches of one bitwise.
    """
    ls = np.asarray(lefts, dtype=float)
    rs = np.asarray(rights, dtype=float)
    if ls.ndim != 1 or ls.shape != rs.shape or not (np.isfinite(ls).all() and np.isfinite(rs).all() and (ls < rs).all()):
        raise InputError("queries need finite ends with left < right, as two 1-D arrays of one length")
    if not e.is_circle:
        a, b = e.carrier
        outside = (ls < a - 1e-12) | (rs > b + 1e-12)
        if outside.any():
            k = int(outside.argmax())
            raise InputError(f"query [{ls[k]}, {rs[k]}] outside carrier [{a}, {b}]")
    limit = 10 * (e.depth + 1) + 10
    chunk = max(1, _BATCH_BUDGET // e.atom_values.size)
    masses, partial, ctxs = [], [], []
    for s in range(0, ls.size, chunk):
        cl, cr = ls[s : s + chunk], rs[s : s + chunk]
        ctx = _Ctx(limit)
        m, p = e._measure_batch(np.stack((cl, cr)), np.arange(cl.size), ctx)
        masses.append(m)
        partial.append(p / (cr - cl))
        ctxs.append((cl.size, ctx))
    if not masses:  # an empty batch
        masses, partial = [np.zeros((0, e.atom_values.size))], [np.zeros(0)]
    return QueryBatch(e.atom_values, np.concatenate(masses), np.concatenate(partial), ctxs)


def query(e: ConstructExpr, q, functional=None) -> QueryResult:
    """Exact interval query against a construction node (a batch of one).

    ``functional`` may be ``None`` (raw distribution), a callable taking a
    :class:`DiscreteDistribution`, or a ``(name, params)`` pair understood
    by :func:`meanosc.distributions.dist_functional`.
    """
    q = as_query(q)
    return query_batch(e, [q.left], [q.right]).result(0, functional)


# -- materialization ----------------------------------------------------------------


def _piece_info(e: ConstructExpr):
    """Return (piece count after merging, first value, last value)."""
    if isinstance(e, LeafExpr):
        f = e.function
        vals = f.values
        count = 1 + int(np.sum(np.abs(np.diff(vals)) > _ATOM_TOL))
        return count, float(vals[0]), float(vals[-1])
    if isinstance(e, ConstExpr):
        return 1, e.value, e.value
    if isinstance(e, HomExpr):
        c, first, last = _piece_info(e.child)
        copies = 2 * (e.levels + 1)
        if c == 1 and abs(first - last) <= _ATOM_TOL:
            return 1, first, last
        merged_junctions = (copies - 1) if abs(last - first) <= _ATOM_TOL else 0
        return copies * c - merged_junctions, first, last
    if isinstance(e, GlueExpr):
        c1, f1, l1 = _piece_info(e.hom1)
        c0, f0, l0 = _piece_info(e.hom0)
        merge = 1 if abs(l1 - f0) <= _ATOM_TOL else 0
        return c1 + c0 - merge, f1, l0
    if isinstance(e, PeriodizeExpr):
        return _piece_info(e.child)
    raise InternalError(f"unknown node kind {e!r}")


def required_pieces(e: ConstructExpr) -> int:
    """Exact piece count a materialization of ``e`` produces."""
    return _piece_info(e)[0]


def _flatten(e: ConstructExpr, lo: float, hi: float, cuts: list, vals: list):
    """Append the realization of ``e`` on [lo, hi] to (cuts, vals)."""
    if isinstance(e, ConstExpr):
        _emit(cuts, vals, lo, hi, e.value)
        return
    if isinstance(e, LeafExpr):
        f = e.function
        a, b = e.carrier
        scale = (hi - lo) / (b - a)
        for j in range(f.piece_count):
            plo = lo + (f.breakpoints[j] - a) * scale
            phi = lo + (f.breakpoints[j + 1] - a) * scale
            _emit(cuts, vals, plo, min(phi, hi), float(f.values[j]))
        cuts[-1] = hi
        return
    if isinstance(e, HomExpr):
        child = e.child
        cinfo = _piece_info(child)
        if cinfo[0] == 1:
            _emit(cuts, vals, lo, hi, cinfo[1])
            return
        scale = hi - lo
        mid = 0.5 * (lo + hi)
        bounds = [lo]
        for k in range(e.levels, 0, -1):
            bounds.append(mid - e._ck(k) * scale)
        bounds.append(mid)
        for k in range(1, e.levels + 1):
            bounds.append(mid + e._ck(k) * scale)
        bounds.append(hi)
        for i in range(len(bounds) - 1):
            _flatten_content(child, bounds[i], bounds[i + 1], cuts, vals)
        return
    if isinstance(e, GlueExpr):
        split = lo + e.alpha * (hi - lo)
        _flatten(e.hom1, lo, split, cuts, vals)
        _flatten(e.hom0, split, hi, cuts, vals)
        return
    if isinstance(e, PeriodizeExpr):
        _flatten_content(e.child, lo, hi, cuts, vals)
        return
    raise InternalError(f"unknown node kind {e!r}")


def _flatten_content(e: ConstructExpr, lo: float, hi: float, cuts: list, vals: list):
    if e.is_circle:
        # copies of circle content carry the base period
        mat = materialize(e, max_pieces=None)
        win = StepFunction(
            Interval(float(mat.breakpoints[0]), float(mat.breakpoints[-1])),
            mat.breakpoints,
            mat.values,
        )
        _flatten(LeafExpr(win), lo, hi, cuts, vals)
    else:
        _flatten(e, lo, hi, cuts, vals)


def _emit(cuts: list, vals: list, lo: float, hi: float, value: float):
    if hi <= lo:
        return
    if vals and abs(vals[-1] - value) <= _ATOM_TOL:
        cuts[-1] = hi
        return
    cuts.append(hi)
    vals.append(value)


def materialize(e: ConstructExpr, max_pieces: int | None = 100_000) -> StepFunction:
    """Flatten a construction into an explicit step function.

    Interval-carried nodes materialize over their carrier; circle nodes
    over one period ``[0, 1)``.  Raises :class:`BudgetError` naming the
    required piece count when it would exceed ``max_pieces``.
    """
    need = required_pieces(e)
    if max_pieces is not None and need > max_pieces:
        raise BudgetError(
            f"materialization needs {need} pieces, budget is {max_pieces}", need
        )
    if e.is_circle:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = e.carrier
    cuts: list = [lo]
    vals: list = []
    _flatten(e, lo, hi, cuts, vals)
    cuts[-1] = hi
    domain = CIRCLE if e.is_circle else Interval(lo, hi)
    return StepFunction(domain, np.array(cuts), np.array(vals))


# -- serialization -------------------------------------------------------------------


def expr_from_dict(d: dict) -> ConstructExpr:
    kind = d.get("kind")
    if kind == "leaf":
        return LeafExpr(StepFunction.from_dict(d["function"]))
    if kind == "const":
        return ConstExpr(float(d["value"]))
    if kind == "hom":
        return HomExpr(
            expr_from_dict(d["child"]), float(d["lambda_hom"]), int(d["levels"])
        )
    if kind == "glue":
        return GlueExpr(
            expr_from_dict(d["left"]),
            expr_from_dict(d["right"]),
            float(d["alpha"]),
            float(d["lambda_hom"]),
            int(d["levels"]),
        )
    if kind == "periodize":
        return PeriodizeExpr(expr_from_dict(d["child"]))
    raise InputError(f"unknown expression kind: {kind!r}")
