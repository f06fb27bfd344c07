"""Lazy expression DAG for homogenized, glued, and periodized constructions.

Deeply nested constructions (the output of the martingale compiler) would
materialize exponentially many pieces, so they are represented as a DAG of
five node kinds: a flat leaf, a constant, a geometric-tiling homogenization
of a child, a two-arc circle gluing, and a periodization.  Interval queries
are answered a batch at a time, and the rows of one batch may belong to
different nodes of a DAG.  Cells wholly inside a range contribute the
cached node distribution scaled by length; the partial end cells become
copy requests for the child.  A batch is one topological pass: top down,
parents before children, every node gathers all the ranges it receives
(its own rows and its parents' copy requests) into one array and splits
them into copy requests; bottom up, it combines its children's
``(ranges, atoms)`` mass matrices.  A node with a single atom (a constant,
and any homogenization, gluing or periodization of constants of one value)
answers every range with its length and sends no copy requests, so the
pass never enters the nodes below it.  Each distinct node runs at most
once per batch and a row's ranges grow linearly with construction depth,
independent of the (possibly astronomical) realized piece count; a single
query is a batch of one.

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
    "query_batches",
    "QueryBatch",
    "materialize",
    "required_pieces",
    "QueryResult",
    "expr_from_dict",
]

_BATCH_BUDGET = 1 << 16  # floats per (ranges x atoms) mass matrix of one batch chunk
# read-only cell-bound tables by (lam, levels), alive while a HomExpr holds one;
# a compiled martingale repeats one schedule at every gluing
_CELL_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def default_levels(lam: float, floor: float = 1e-3) -> int:
    """Truncation level making the residual cells shorter than ``floor``."""
    if not 0.0 < lam < 1.0:
        raise InputError(f"homogenization ratio must lie in (0, 1), got {lam}")
    return max(1, int(math.ceil(math.log(floor) / math.log(lam))))


def _atom_table(values: np.ndarray):
    """The sorted distinct values, read-only, and the index of each value in them."""
    atoms, idx = np.unique(values, return_inverse=True)
    atoms.setflags(write=False)
    return atoms, idx


def _contiguous_span(mapping: np.ndarray):
    if mapping.size == 0:
        return None
    start = int(mapping[0])
    if np.array_equal(mapping, np.arange(start, start + mapping.size)):
        return (start, start + mapping.size)
    return None


@dataclass(frozen=True)
class QueryResult:
    """Outcome of an interval query against a construction node.

    ``value`` is the requested functional of the exact restriction
    distribution (``None`` when the raw distribution was requested),
    ``depth`` the deepest recursion level touched, ``partial_end_weight``
    the query-mass fraction resolved through partial end copies at the
    outermost decomposition, and ``nodes_visited`` an operation-count
    telemetry figure.  A node with one atom answers without recursion, so
    ``depth`` and ``nodes_visited`` count no node below one; a one-atom
    query root still reports the ``partial_end_weight`` of its own
    decomposition.
    """

    value: float | None
    distribution: DiscreteDistribution
    depth: int
    partial_end_weight: float
    nodes_visited: int


def _ends_and_whole(sub: np.ndarray, whole: np.ndarray, dist_vec: np.ndarray) -> np.ndarray:
    """Masses of n ranges: their left and right end pieces (the ``(2n, atoms)`` ``sub``) plus ``whole`` lengths of ``dist_vec``."""
    n = whole.size
    out = sub[:n]
    out += sub[n:]
    out += whole[:, None] * dist_vec
    return out


class ConstructExpr:
    """Base class of all construction nodes.  Nodes are immutable."""

    kind: str = "abstract"

    # populated by subclasses
    atom_values: np.ndarray
    dist_vec: np.ndarray
    depth: int
    # the nodes a query sends copy requests to, and a rank above every
    # child's, so that sorting by rank puts parents before children
    children: tuple = ()
    rank: int = 0

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

    @cached_property
    def nodes(self) -> list:
        """This node and every node below it, each once, parents before children."""
        seen: dict = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node.children)
        return sorted(seen.values(), key=lambda node: -node.rank)

    def _split(self, q: np.ndarray):
        """Top-down step of a query pass over the ``(2, n)`` ranges ``q``.

        Returns the copy requests ``(child, a, b, ranges, src)``, each a
        ``(2, k)`` array of ranges in this node's coordinates inside the
        copy of ``child`` occupying ``[a, b]``, with ``src`` indexing ``q``
        taken twice (None when the request is all ``2n`` of it); the state
        ``_combine`` needs; and a function returning the length of each
        range resolved through partial end copies, called only for the
        ranges of a query's own root.  A node without children requests
        nothing and keeps its ranges as the state.
        """
        return [], q, lambda: np.zeros(q.shape[1])

    def _combine(self, state, subs: list) -> np.ndarray:
        """Bottom-up step: the ``(n, atoms)`` masses in length units, from each request's ``(k, child atoms)`` masses."""
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
        self.atom_values, self._value_idx = _atom_table(f.values)
        vec = np.zeros(self.atom_values.size)
        np.add.at(vec, self._value_idx, f.lengths / (f.breakpoints[-1] - f.breakpoints[0]))
        vec.setflags(write=False)
        self.dist_vec = vec
        self.depth = 0

    def _combine(self, q, subs):
        out = np.zeros((q.shape[1], self.atom_values.size))
        # where every atom has one piece a scatter places the overlaps (0.0 + x is x), else they add up
        scatter = self.atom_values.size == self.function.piece_count
        # the (ranges x pieces) overlaps in slices of at most _BATCH_BUDGET floats (or one range)
        step = max(1, _BATCH_BUDGET // self.function.piece_count)
        for s in range(0, q.shape[1], step):
            ov = self.function.overlap_rows(*q[:, s : s + step])
            if scatter:
                out[s : s + step, self._value_idx] = ov
            else:
                np.add.at(out[s : s + step], (slice(None), self._value_idx), ov)
        return out

    def to_dict(self) -> dict:
        return {"kind": "leaf", "function": self.function.to_dict()}


class ConstExpr(ConstructExpr):
    kind = "const"

    def __init__(self, value: float):
        if not np.isfinite(value):
            raise InputError("constant value must be finite")
        self.value = float(value)
        self.carrier = (-0.5, 0.5)
        self.atom_values, _ = _atom_table(np.array([self.value]))
        self.dist_vec = np.array([1.0])
        self.dist_vec.setflags(write=False)
        self.depth = 0

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
        self.rank = child.rank + 1
        self.lam = float(lam)
        self.levels = int(levels)
        self.carrier = (-0.5, 0.5)
        self.atom_values = child.atom_values
        self.dist_vec = child.dist_vec
        self.depth = child.depth + 1

    @property
    def children(self):
        return (self.child,)

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

    def _split(self, q):
        bounds = self._bounds
        # cell j is [bounds[j], bounds[j + 1]]; a point on a bound belongs to the cell it starts
        j = bounds[1:-1].searchsorted(q, "right")
        lo, hi = bounds[j], bounds[1:][j]
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

        def partial():
            return np.where(same, r - l, (wl - l) + (r - wr))

        return [(self.child, lo.ravel(), hi.ravel(), req, None)], np.where(same, 0.0, wr - wl), partial

    def _combine(self, whole, subs):
        return _ends_and_whole(subs[0], whole, self.dist_vec)

    def to_dict(self) -> dict:
        return {
            "kind": "hom",
            "child": self.child.to_dict(),
            "lambda_hom": self.lam,
            "levels": self.levels,
        }


class _CircleExpr(ConstructExpr):
    """Period-1 circle node: the shared period decomposition of glue and periodize nodes."""

    def _period_split(self, u: np.ndarray):
        """Copy requests and state for the ``(2, m)`` ranges ``u`` inside the base period ``[0, 1]``."""
        raise NotImplementedError

    def _period_combine(self, state, subs: list) -> np.ndarray:
        raise NotImplementedError

    def _split(self, q):
        # A range with no period start strictly inside sits in one period
        # and is one piece.  Any other range splits into a head piece up to
        # its first period end and a tail piece from its last period start
        # (either may be empty), and the whole periods between them take
        # the node distribution.
        n = q.shape[1]
        fl = np.floor(q)  # the start's period, and the end's last period start
        first_end = np.ceil(q[0])
        one = (first_end >= q[1]) | (fl[1] <= q[0])
        u = q - fl[0]
        # heads then tails: a head ends at the range end, else at its period
        # end (1) or, for a range starting on a period start, nowhere (0);
        # tails start at 0
        many = ~one
        pieces = np.concatenate((u[0], np.zeros(n), np.where(one, u[1], first_end - fl[0]), (q[1] - fl[1]) * many)).reshape(2, -1)
        reqs, state = self._period_split(pieces)

        def partial():
            return np.where(one, q[1] - q[0], (first_end - q[0]) + (q[1] - fl[1]))

        return reqs, (state, (fl[1] - first_end) * many), partial

    def _combine(self, state, subs):
        pstate, whole = state
        return _ends_and_whole(self._period_combine(pstate, subs), whole, self.dist_vec)


class GlueExpr(_CircleExpr):
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
        self.rank = max(self.hom0.rank, self.hom1.rank) + 1
        self.lam = float(lam)
        self.levels = int(levels)
        self.atom_values, idx = _atom_table(np.concatenate((e0.atom_values, e1.atom_values)))
        map0, map1 = idx[: e0.atom_values.size], idx[e0.atom_values.size :]
        # (copy, its range in the base period, child atom -> node atom map,
        # contiguous span or None); a map between tables of distinct sorted
        # atoms is strictly increasing, so no two child atoms share a node atom
        self._arms = tuple(
            (hom, a, b, mapping, _contiguous_span(mapping))
            for hom, a, b, mapping in ((self.hom1, 0.0, self.alpha, map1), (self.hom0, self.alpha, 1.0, map0))
        )
        vec = np.zeros(self.atom_values.size)
        np.add.at(vec, map0, (1.0 - self.alpha) * e0.dist_vec)
        np.add.at(vec, map1, self.alpha * e1.dist_vec)
        vec.setflags(write=False)
        self.dist_vec = vec
        self.depth = max(e0.depth, e1.depth) + 1

    @property
    def children(self):
        return (self.hom1, self.hom0)

    def _period_split(self, u):
        reqs, arms = [], []
        for hom, a, b, *cols in self._arms:
            # clamped to the arm; a range that misses it comes out empty
            arm = np.maximum(u, a)
            np.minimum(arm, b, out=arm)
            live = (arm[1] > arm[0]).nonzero()[0]
            if live.size:
                reqs.append((hom, a, b, arm.take(live, axis=1), live))
                arms.append((live, *cols))
        return reqs, (u.shape[1], arms)

    def _period_combine(self, state, subs):
        m, arms = state
        out = np.zeros((m, self.atom_values.size))
        for (live, mapping, span), sub in zip(arms, subs):
            if span is not None:
                out[live, span[0] : span[1]] += sub
            else:
                out[live[:, None], mapping] += sub
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "glue",
            "left": self.e0.to_dict(),
            "right": self.e1.to_dict(),
            "alpha": self.alpha,
            "lambda_hom": self.lam,
            "levels": self.levels,
        }


class PeriodizeExpr(_CircleExpr):
    """Periodic extension of an interval-carried child, period 1."""

    kind = "periodize"

    def __init__(self, child: ConstructExpr):
        if child.is_circle:
            raise InputError("child is already a circle function")
        self.child = child
        self.rank = child.rank + 1
        self.atom_values = child.atom_values
        self.dist_vec = child.dist_vec
        self.depth = child.depth + 1

    @property
    def children(self):
        return (self.child,)

    def _period_split(self, u):
        return [(self.child, 0.0, 1.0, u, None)], None

    def _period_combine(self, state, subs):
        return subs[0]

    def to_dict(self) -> dict:
        return {"kind": "periodize", "child": self.child.to_dict()}


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


def _topological(roots: list) -> list:
    """Every node reachable from ``roots``, parents before children."""
    if len(roots) == 1:
        return roots[0].nodes
    seen: dict = {}
    for root in roots:
        if id(root) not in seen:
            for node in root.nodes:
                seen.setdefault(id(node), node)
    return sorted(seen.values(), key=lambda node: -node.rank)


class _Trail:
    """Telemetry of one pass, tallied on first use.

    Every node run lists where its ranges came from: ``(None, (s, e))`` for
    the query rows ``s:e`` of a root, or ``(run, k)`` for a copy request of
    the earlier run ``run``, whose ranges taken twice ``k`` indexes.  A copy
    request sits one recursion level below the range it came from, and a
    row that reaches a node through two partial end cells counts two
    visits, as two separate queries would.
    """

    def __init__(self, n: int):
        self.n = n
        self.sources: list = []  # per run
        self.rows: list = []  # per tallied run, the query row of each range
        self.levels: list = []  # per tallied run, the recursion level of each range

    def tally(self):
        """Rows and levels of the ranges of every run recorded so far."""
        for parts in self.sources[len(self.rows) :]:
            rows, levels = [], []
            for src, k in parts:
                if src is None:
                    rows.append(np.arange(*k))
                    levels.append(np.ones(k[1] - k[0], dtype=int))
                else:
                    r, lv = self.rows[src], self.levels[src]
                    rows.append(np.concatenate((r, r))[k])
                    levels.append(np.concatenate((lv, lv))[k] + 1)
            self.rows.append(np.concatenate(rows))
            self.levels.append(np.concatenate(levels))

    @cached_property
    def stats(self):
        """Node visits and deepest recursion level of each of the ``n`` query rows."""
        self.tally()
        rows = np.concatenate(self.rows)
        deepest = np.zeros(self.n, dtype=int)
        np.maximum.at(deepest, rows, np.concatenate(self.levels))
        return np.bincount(rows, minlength=self.n), deepest


def _lengths(q: np.ndarray, subs: list) -> np.ndarray:
    """The masses of a one-atom node's ranges ``q``: their lengths."""
    return (q[1] - q[0])[:, None]


def _pass(groups: list, q: np.ndarray, limits: np.ndarray):
    """Answer the ranges of several root nodes in one topological pass.

    ``groups`` lists ``(root, start, stop)``: the columns ``start:stop`` of
    the ``(2, n)`` array ``q`` are ranges of ``root``.  Top down, parents
    before children, every node gathers all the ranges it receives, its
    own rows' and all its parents' copy requests, into one array and splits
    them into copy requests for its children; bottom up, every node
    combines its children's masses.  A node with one atom answers its
    ranges with their lengths and sends no copy requests, so no node below
    it runs unless another path reaches it.  Each distinct node runs at
    most once.  A range
    that reached a node through ``k`` copies sits at recursion level
    ``k + 1``, which may not exceed its row's entry of ``limits``; every
    part a node receives carries a lower bound on that margin, and only a
    negative bound makes the node check its ranges one by one.

    Returns, per group, its ``(rows, atoms)`` masses in length units and a
    ``(partial, start)`` pair whose ``partial()[start:]`` begins with its
    lengths resolved through partial end copies; and the telemetry.
    """
    trail = _Trail(q.shape[1])
    order = _topological([root for root, _, _ in groups])
    boxes: dict = {id(node): [] for node in order}  # parts sent to a node not yet run: (ranges, source, margin)
    received: dict = {}  # node id -> ranges sent to it
    readers: dict = {}  # node id -> parents' slices of its masses still to be read

    def send(node, ranges, source, margin) -> int:
        key = id(node)
        if key not in boxes:
            raise InternalError("a copy request reached a node that already ran: the construction DAG has a cycle")
        boxes[key].append((ranges, source, margin))
        start = received.get(key, 0)
        received[key] = start + ranges.shape[1]
        return start

    # a root's own rows come first in its box
    slots = [(root, send(root, q[:, s:e], (None, (s, e)), int(limits[s]) - 1), e - s) for root, s, e in groups]
    roots: dict = {}  # root id -> its own rows
    for root, _, k in slots:
        roots[id(root)] = roots.get(id(root), 0) + k
    runs, partials = [], {}
    for node in order:
        parts = boxes.pop(id(node))
        if not parts:
            continue
        rq = parts[0][0] if len(parts) == 1 else np.concatenate([p[0] for p in parts], axis=1)
        run = len(trail.sources)
        trail.sources.append([p[1] for p in parts])
        margin = min(p[2] for p in parts)
        if margin < 0:
            trail.tally()
            if (trail.levels[run] > limits[trail.rows[run]]).any():
                raise InternalError("query recursion exceeded 10x construction depth")
        if node.atom_values.size == 1:
            # every range of a one-atom node holds its value alone: its mass
            # is its length, and nothing below the node runs
            reqs, state, combine = [], rq, _lengths

            def partial(node=node, rq=rq):
                return node._split(rq)[2]()
        else:
            reqs, state, partial = node._split(rq)
            combine = node._combine
        if id(node) in roots:
            partials[id(node)] = partial
        copies = []
        for child, a, b, cq, src in reqs:
            # the ranges map affinely onto the child's content bounds; snap
            # copy-aligned ends exactly so recursion stays period-aligned (a
            # left end l <= a lands on A through the clamp)
            A, B = child.content_bounds()
            m = np.subtract(cq, a)
            m *= (B - A) / (b - a)
            m += A
            np.putmask(m[1], cq[1] >= b, B)
            np.maximum(np.minimum(m, B, out=m), A, out=m)
            width = m[1] - m[0]
            live = (width > 0.0).nonzero()[0]
            total, start, scale = cq.shape[1], 0, None
            if live.size:
                if live.size < total:
                    m, cq, width = m.take(live, axis=1), cq.take(live, axis=1), width[live]
                start = send(child, m, (run, live if src is None else src[live]), margin - 1)
                readers[id(child)] = readers.get(id(child), 0) + 1
                # the child's masses rescale to this node's length units
                scale = ((cq[1] - cq[0]) / width)[:, None]
            copies.append((child, start, live, total, scale))
        runs.append((node, combine, state, copies))

    masses: dict = {}

    def settle(key):
        # no parent reads these masses any more: a root keeps its own rows, compactly
        if key in roots:
            masses[key] = masses[key][: roots[key]].copy()
        else:
            del masses[key]

    for node, combine, state, copies in reversed(runs):
        subs = []
        for child, start, live, total, scale in copies:
            out = np.zeros((total, child.atom_values.size)) if live.size < total else None
            if live.size:
                key = id(child)
                sub = masses[key][start : start + live.size] * scale
                readers[key] -= 1
                if not readers[key]:
                    settle(key)
                if out is None:
                    out = sub
                else:
                    out[live] = sub
            subs.append(out)
        masses[id(node)] = combine(state, subs)
        if not readers.get(id(node)):
            settle(id(node))
    return [(masses[id(root)][s : s + k], (partials[id(root)], s)) for root, s, k in slots], trail


class QueryBatch:
    """Outcome of a batch of interval queries, one row per query.

    ``masses`` holds each query's restriction masses over ``atom_values`` in
    length units; ``depth``, ``partial_end_weight`` and ``nodes_visited``
    are per row what :class:`QueryResult` reports for one query (tallied
    on first access).
    """

    def __init__(self, atom_values: np.ndarray, masses: np.ndarray, lengths: np.ndarray, chunks: list):
        self.atom_values = atom_values
        self.masses = masses
        self._lengths = lengths
        # per chunk, the (visits, depth) pair and the partial-end lengths of its rows, or functions returning them
        self._chunks = chunks

    @cached_property
    def _telemetry(self):
        stats = [t() if callable(t) else t for t, _ in self._chunks] or [(np.zeros(0, int), np.zeros(0, int))]
        return tuple(np.concatenate(col) for col in zip(*stats))

    @property
    def nodes_visited(self) -> np.ndarray:
        return self._telemetry[0]

    @property
    def depth(self) -> np.ndarray:
        return self._telemetry[1]

    @cached_property
    def partial_end_weight(self) -> np.ndarray:
        parts = [p() if callable(p) else p for _, p in self._chunks]
        return np.concatenate(parts or [np.zeros(0)]) / self._lengths

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


def _query_masses(requests, record=None) -> list[np.ndarray]:
    """The chunk loop of :func:`query_batches`, without its input checks: per request, its ``(rows, atoms)`` masses in length units.

    ``requests`` lists ``(node, lefts, rights)`` triples of float arrays
    whose rows are finite, nonempty and inside their node's carrier.
    ``record``, if given, is called as ``record(request, start, stop,
    trail, (partial, offset), single)`` for the rows ``start:stop`` of
    every chunk's :func:`_pass`; ``single`` says whether one chunk holds
    every row.
    """
    nodes = [e for e, _, _ in requests]
    sizes = [l.size for _, l, _ in requests]
    q = np.stack([np.concatenate([row[k] for row in requests] or [np.zeros(0)]) for k in (1, 2)])
    ends = np.cumsum(sizes).tolist()
    weight = np.cumsum(np.repeat([e.atom_values.size for e in nodes], sizes))
    limits = np.repeat([10 * (e.depth + 1) + 10 for e in nodes], sizes)
    bounds, s = [], 0
    while s < weight.size:
        e = max(s + 1, int(weight.searchsorted((weight[s - 1] if s else 0) + _BATCH_BUDGET, "right")))
        bounds.append((s, e))
        s = e
    masses: list = [None] * len(nodes)
    for s, e in bounds:
        groups = [(g, max(b - n, s) - s, min(b, e) - s) for g, (n, b) in enumerate(zip(sizes, ends)) if b - n < e and b > s]
        results, trail = _pass([(nodes[g], a, b) for g, a, b in groups], q[:, s:e], limits[s:e])
        for (g, a, b), (mass, partial) in zip(groups, results):
            if b - a == sizes[g]:
                masses[g] = mass
            else:
                if masses[g] is None:
                    masses[g] = np.empty((sizes[g], nodes[g].atom_values.size))
                first = s + a - (ends[g] - sizes[g])
                masses[g][first : first + b - a] = mass
            if record is not None:
                record(g, a, b, trail, partial, len(bounds) == 1)
    return [np.zeros((0, node.atom_values.size)) if m is None else m for node, m in zip(nodes, masses)]


def query_batches(requests) -> list[QueryBatch]:
    """Exact interval queries against several construction nodes, answered together.

    ``requests`` lists ``(node, lefts, rights)`` triples; the result holds
    one :class:`QueryBatch` per triple.  All rows go through one
    topological pass over the nodes' DAGs, in chunks of rows whose roots'
    atom counts sum to at most ``_BATCH_BUDGET`` (or of one row).  Rows
    never influence each other, so every row equals a batch of one against
    its own node bitwise.  The input checks and the telemetry sit on top
    of :func:`_query_masses`.
    """
    nodes = [e for e, _, _ in requests]
    ls = [np.asarray(l, dtype=float) for _, l, _ in requests]
    rs = [np.asarray(r, dtype=float) for _, _, r in requests]
    if any(l.ndim != 1 or l.shape != r.shape for l, r in zip(ls, rs)):
        raise InputError("queries need finite ends with left < right, as two 1-D arrays of one length")
    sizes = [l.size for l in ls]
    q = np.stack((np.concatenate(ls or [np.zeros(0)]), np.concatenate(rs or [np.zeros(0)])))
    if not (np.isfinite(q).all() and (q[0] < q[1]).all()):
        raise InputError("queries need finite ends with left < right, as two 1-D arrays of one length")
    carriers = [(-math.inf, math.inf) if e.is_circle else e.carrier for e in nodes]
    outside = (q[0] < np.repeat([a - 1e-12 for a, _ in carriers], sizes)) | (q[1] > np.repeat([b + 1e-12 for _, b in carriers], sizes))
    if outside.any():
        k = int(outside.argmax())
        a, b = carriers[int(np.searchsorted(np.cumsum(sizes), k, "right"))]
        raise InputError(f"query [{q[0, k]}, {q[1, k]}] outside carrier [{a}, {b}]")
    chunks: list = [[] for _ in nodes]

    def record(g, a, b, trail, partial, single):
        (resolved, start), k = partial, b - a

        def telemetry():
            return tuple(col[a:b] for col in trail.stats)

        def partial_end():
            return resolved()[start : start + k]

        # a batch of several chunks settles each chunk before the next
        # runs, so that no chunk's pass outlives it
        chunks[g].append((telemetry, partial_end) if single else (telemetry(), partial_end()))

    masses = _query_masses(list(zip(nodes, ls, rs)), record)
    return [QueryBatch(node.atom_values, m, r - l, c) for node, m, l, r, c in zip(nodes, masses, ls, rs, chunks)]


def query_batch(e: ConstructExpr, lefts, rights) -> QueryBatch:
    """Exact interval queries ``[lefts[i], rights[i]]`` against one construction node, all at once.

    The one-root case of :func:`query_batches`: a batch of n queries equals
    n batches of one bitwise.
    """
    return query_batches([(e, lefts, rights)])[0]


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
    """Return (piece count after merging, first value, last value), once per distinct node, children first.

    A plain recursion would cost 2^depth on a DAG that shares children.
    """
    if "_pieces" not in e.__dict__:
        for node in reversed(e.nodes):
            if "_pieces" not in node.__dict__:
                node._pieces = _piece_step(node)
    return e._pieces


def _piece_step(e: ConstructExpr):
    """``_piece_info`` of ``e`` from its children's."""
    if isinstance(e, LeafExpr):
        f = e.function
        vals = f.values
        count = 1 + int(np.count_nonzero(np.diff(vals)))
        return count, float(vals[0]), float(vals[-1])
    if isinstance(e, ConstExpr):
        return 1, e.value, e.value
    if isinstance(e, HomExpr):
        c, first, last = e.child._pieces
        copies = 2 * (e.levels + 1)
        merged_junctions = (copies - 1) if last == first else 0
        return copies * c - merged_junctions, first, last
    if isinstance(e, GlueExpr):
        c1, f1, l1 = e.hom1._pieces
        c0, f0, l0 = e.hom0._pieces
        return c1 + c0 - int(l1 == f0), f1, l0
    if isinstance(e, PeriodizeExpr):
        return e.child._pieces
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
    if vals and vals[-1] == value:
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
