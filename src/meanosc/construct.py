"""Lazy expression DAG for homogenized, glued, and periodized constructions.

Deeply nested constructions (the output of the martingale compiler) would
materialize exponentially many pieces, so they are represented as a DAG of
five node kinds: a flat leaf, a constant, a geometric-tiling homogenization
of a child, a two-arc circle gluing, and a periodization.  Interval queries
are answered recursively: cells wholly inside the query contribute the
cached node distribution scaled by length, and at most the two partial end
cells recurse into the child.  The cost of a query is therefore linear in
construction depth, independent of the (possibly astronomical) realized
piece count.

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
from dataclasses import dataclass

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
    "materialize",
    "required_pieces",
    "QueryResult",
    "expr_from_dict",
]

_ATOM_TOL = 1e-12


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
    __slots__ = ("visits", "max_depth", "depth", "limit")

    def __init__(self, limit: int):
        self.visits = 0
        self.max_depth = 0
        self.depth = 0
        self.limit = limit

    def enter(self):
        self.depth += 1
        self.visits += 1
        if self.depth > self.limit:
            raise InternalError("query recursion exceeded 10x construction depth")
        if self.depth > self.max_depth:
            self.max_depth = self.depth

    def leave(self):
        self.depth -= 1


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

    def _measure(self, l: float, r: float, ctx: _Ctx):
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

    def _measure(self, l: float, r: float, ctx: _Ctx):
        ctx.enter()
        ov = self.function.overlaps((l, r))
        vec = np.zeros(self.atom_values.size)
        np.add.at(vec, self._value_idx, ov)
        ctx.leave()
        return vec, 0.0

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

    def _measure(self, l: float, r: float, ctx: _Ctx):
        ctx.enter()
        ctx.leave()
        return np.array([r - l]), 0.0

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

    def _locate(self, x: float) -> tuple[int, int]:
        side = 1 if x >= 0 else -1
        u = abs(x)
        cK = self._ck(self.levels)
        if u >= cK:
            return side, self.levels + 1
        t = 1.0 - 2.0 * u
        k = int(math.floor(math.log(t) / math.log(self.lam))) + 1
        k = min(max(k, 1), self.levels)
        while k > 1 and u < self._ck(k - 1):
            k -= 1
        while k < self.levels and u > self._ck(k):
            k += 1
        return side, k

    def _measure(self, l: float, r: float, ctx: _Ctx):
        ctx.enter()
        cl = self._locate(l)
        cr = self._locate(r)
        if cl == cr:
            vec = _copy_measure(self.child, *self._cell_bounds(*cl), l, r, ctx)
            ctx.leave()
            return vec, r - l
        vec = np.zeros(self.atom_values.size)
        partial = 0.0
        al, bl = self._cell_bounds(*cl)
        ar, br = self._cell_bounds(*cr)
        whole_start = bl
        if l <= al:
            whole_start = al
        elif bl - l > 0:
            vec += _copy_measure(self.child, al, bl, l, bl, ctx)
            partial += bl - l
        whole_end = ar
        if r >= br:
            whole_end = br
        elif r - ar > 0:
            vec += _copy_measure(self.child, ar, br, ar, r, ctx)
            partial += r - ar
        if whole_end > whole_start:
            vec = vec + (whole_end - whole_start) * self.dist_vec
        ctx.leave()
        return vec, partial

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
        self._map0 = _index_map(e0.atom_values, self.atom_values)
        self._map1 = _index_map(e1.atom_values, self.atom_values)
        self._slice0 = _contiguous_span(self._map0)
        self._slice1 = _contiguous_span(self._map1)
        vec = np.zeros(self.atom_values.size)
        np.add.at(vec, self._map0, (1.0 - self.alpha) * e0.dist_vec)
        np.add.at(vec, self._map1, self.alpha * e1.dist_vec)
        vec.setflags(write=False)
        self.dist_vec = vec
        self.depth = max(e0.depth, e1.depth) + 1

    def _remap(self, vec: np.ndarray, mapping: np.ndarray, span) -> np.ndarray:
        out = np.zeros(self.atom_values.size)
        if span is not None:
            out[span[0] : span[1]] = vec
        else:
            np.add.at(out, mapping, vec)
        return out

    def _period_measure(self, u0: float, u1: float, ctx: _Ctx):
        """Measure over ``[u0, u1]`` within the base period ``[0, 1]``."""
        vec = np.zeros(self.atom_values.size)
        a = self.alpha
        lo, hi = max(u0, 0.0), min(u1, a)
        if hi > lo:
            sub = _copy_measure(self.hom1, 0.0, a, lo, hi, ctx)
            vec += self._remap(sub, self._map1, self._slice1)
        lo, hi = max(u0, a), min(u1, 1.0)
        if hi > lo:
            sub = _copy_measure(self.hom0, a, 1.0, lo, hi, ctx)
            vec += self._remap(sub, self._map0, self._slice0)
        return vec

    def _measure(self, l: float, r: float, ctx: _Ctx):
        return _circle_measure(self, l, r, ctx)

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

    def _period_measure(self, u0: float, u1: float, ctx: _Ctx):
        return _copy_measure(self.child, 0.0, 1.0, u0, u1, ctx)

    def _measure(self, l: float, r: float, ctx: _Ctx):
        return _circle_measure(self, l, r, ctx)

    def to_dict(self) -> dict:
        return {"kind": "periodize", "child": self.child.to_dict()}


def _copy_measure(child: ConstructExpr, a: float, b: float, l: float, r: float, ctx: _Ctx) -> np.ndarray:
    """Mass of ``[l, r]`` inside the copy of ``child`` that occupies ``[a, b]``.

    The range maps affinely onto the child's content bounds, the child
    measures it, and the mass is rescaled to parent length units.
    """
    A, B = child.content_bounds()
    scale = (B - A) / (b - a)
    # snap copy-aligned ends exactly so recursion stays period-aligned
    lo = A if l <= a else A + (l - a) * scale
    hi = B if r >= b else A + (r - a) * scale
    lo, hi = max(min(lo, B), A), max(min(hi, B), A)
    if hi <= lo:
        return np.zeros(child.atom_values.size)
    vec, _ = child._measure(lo, hi, ctx)
    return vec * ((r - l) / (hi - lo))


def _circle_measure(node, l: float, r: float, ctx: _Ctx):
    """Shared period decomposition for circle nodes."""
    ctx.enter()
    first_end = math.ceil(l)
    last_start = math.floor(r)
    if first_end >= r or last_start <= l or first_end > last_start:
        # the query sits inside one period (possibly crossing the wrap once)
        k = math.floor(l)
        u0, u1 = l - k, r - k
        if u1 <= 1.0:
            vec = node._period_measure(u0, u1, ctx)
        else:
            vec = node._period_measure(u0, 1.0, ctx) + node._period_measure(
                0.0, u1 - 1.0, ctx
            )
        ctx.leave()
        return vec, r - l
    vec = np.zeros(node.atom_values.size)
    partial = 0.0
    if first_end > l:
        k = math.floor(l)
        vec += node._period_measure(l - k, 1.0, ctx)
        partial += first_end - l
    if r > last_start:
        vec += node._period_measure(0.0, r - last_start, ctx)
        partial += r - last_start
    whole = last_start - first_end
    if whole > 0:
        vec = vec + whole * node.dist_vec
    ctx.leave()
    return vec, partial


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


def query(e: ConstructExpr, q, functional=None) -> QueryResult:
    """Exact interval query against a construction node.

    ``functional`` may be ``None`` (raw distribution), a callable taking a
    :class:`DiscreteDistribution`, or a ``(name, params)`` pair understood
    by :func:`meanosc.distributions.dist_functional`.
    """
    q = as_query(q)
    if not e.is_circle:
        a, b = e.carrier
        if q.left < a - 1e-12 or q.right > b + 1e-12:
            raise InputError(
                f"query [{q.left}, {q.right}] outside carrier [{a}, {b}]"
            )
    ctx = _Ctx(limit=10 * (e.depth + 1) + 10)
    vec, partial = e._measure(q.left, q.right, ctx)
    total = vec.sum()
    mask = vec > 0
    dist = DiscreteDistribution._presorted(e.atom_values[mask], vec[mask] / total)
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
        depth=ctx.max_depth,
        partial_end_weight=partial / q.length,
        nodes_visited=ctx.visits,
    )


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
