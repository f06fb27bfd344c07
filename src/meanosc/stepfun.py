"""Piecewise-constant functions on an interval or on the unit circle.

The carrier type of the whole package is :class:`StepFunction`: finitely
many pieces, one real value per piece.  Every integral quantity computed
here (averages, centered p-th moments, overlap lengths, value
distributions over a subinterval) is evaluated in closed form piece by
piece; no quadrature appears anywhere.

Circle functions have period 1.  A query against a circle function may be
any finite interval of the real line (a "long arc"): the function is read
through its periodic realization, so an arc may wrap around the circle
several times.  Overlap lengths for long arcs are computed from whole-period
counts plus folded partial ends, which keeps the cost independent of the
arc length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Interval",
    "Circle",
    "CIRCLE",
    "IntervalQuery",
    "StepFunction",
    "MonotoneMap",
    "average",
    "central_moment",
    "distribution",
    "compose_monotone",
    "monotone_rearrangement",
]

@dataclass(frozen=True)
class Interval:
    """A finite interval domain ``[a, b]`` with ``a < b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise InputError("interval endpoints must be finite")
        if not self.a < self.b:
            raise InputError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def to_dict(self) -> dict:
        return {"kind": "interval", "a": self.a, "b": self.b}


class Circle:
    """The unit circle, coordinatized by the line modulo 1."""

    def __repr__(self) -> str:
        return "Circle()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Circle)

    def __hash__(self) -> int:
        return hash("Circle")

    def to_dict(self) -> dict:
        return {"kind": "circle"}


CIRCLE = Circle()


def domain_from_dict(d: dict) -> Interval | Circle:
    if d.get("kind") == "interval":
        return Interval(float(d["a"]), float(d["b"]))
    if d.get("kind") == "circle":
        return CIRCLE
    raise InputError(f"unknown domain kind: {d.get('kind')!r}")


@dataclass(frozen=True)
class IntervalQuery:
    """A query interval ``[left, right]`` with ``left < right``.

    For interval-domain functions the query must lie inside the domain.
    For circle functions any finite interval of the line is allowed and is
    interpreted through the periodic realization.
    """

    left: float
    right: float

    def __post_init__(self):
        if not (np.isfinite(self.left) and np.isfinite(self.right)):
            raise InputError("query endpoints must be finite")
        if not self.left < self.right:
            raise InputError(
                f"query requires left < right, got [{self.left}, {self.right}]"
            )

    @property
    def length(self) -> float:
        return self.right - self.left

    def to_dict(self) -> dict:
        return {"left": self.left, "right": self.right}


def as_query(q) -> IntervalQuery:
    """Coerce a pair or an IntervalQuery into an IntervalQuery."""
    if isinstance(q, IntervalQuery):
        return q
    left, right = q
    return IntervalQuery(float(left), float(right))


class StepFunction:
    """A piecewise-constant real function.

    Parameters
    ----------
    domain : Interval or Circle
        Carrier of the function.  Interval breakpoints must span the
        domain exactly; circle breakpoints must span exactly one period.
    breakpoints : array-like, shape (n+1,)
        Strictly increasing piece boundaries.
    values : array-like, shape (n,)
        One finite value per piece.
    """

    __slots__ = ("domain", "breakpoints", "values")

    def __init__(self, domain, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise InputError("need n+1 breakpoints for n piece values")
        if vals.size < 1:
            raise InputError("a step function needs at least one piece")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise InputError("breakpoints and values must be finite")
        if not np.all(np.diff(bp) > 0):
            raise InputError("breakpoints must be strictly increasing")
        if isinstance(domain, Interval):
            if bp[0] != domain.a or bp[-1] != domain.b:
                raise InputError(
                    "breakpoints must span the interval domain exactly"
                )
        elif isinstance(domain, Circle):
            if abs((bp[-1] - bp[0]) - 1.0) > 1e-9:
                raise InputError("circle breakpoints must span exactly one period")
        else:
            raise InputError(f"unsupported domain: {domain!r}")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    # -- basic structure -----------------------------------------------------

    @property
    def piece_count(self) -> int:
        return self.values.size

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def is_circle(self) -> bool:
        return isinstance(self.domain, Circle)

    def __repr__(self) -> str:
        return (
            f"StepFunction({self.domain!r}, pieces={self.piece_count}, "
            f"range=[{self.values.min():.6g}, {self.values.max():.6g}])"
        )

    def evaluate(self, x: float) -> float:
        """Pointwise value; right-open pieces, last piece closed."""
        if self.is_circle:
            t0 = self.breakpoints[0]
            x = t0 + (x - t0) - np.floor(x - t0)
        else:
            if not self.breakpoints[0] <= x <= self.breakpoints[-1]:
                raise InputError(f"{x} outside domain")
        i = int(np.searchsorted(self.breakpoints, x, side="right") - 1)
        i = min(max(i, 0), self.piece_count - 1)
        return float(self.values[i])

    # -- exact interval calculus ----------------------------------------------

    def _check_query(self, q: IntervalQuery) -> None:
        if not self.is_circle:
            if q.left < self.breakpoints[0] - 1e-12 or q.right > self.breakpoints[-1] + 1e-12:
                raise InputError(
                    f"query [{q.left}, {q.right}] outside domain "
                    f"[{self.breakpoints[0]}, {self.breakpoints[-1]}]"
                )

    def overlaps(self, q) -> np.ndarray:
        """Exact overlap length of the query with each piece.

        On the circle the overlap counts every wrap of a long arc, via
        whole-period counts plus folded partial ends.
        """
        q = as_query(q)
        self._check_query(q)
        return self.overlap_rows([q.left], [q.right])[0]

    def overlap_rows(self, lefts, rights) -> np.ndarray:
        """:meth:`overlaps` of the queries ``[lefts[k], rights[k]]``, one row per query, unchecked.

        The package's one overlap kernel; in place, as a search chunk's matrix may be large.
        """
        lefts, rights = (np.asarray(x, dtype=float)[:, None] for x in (lefts, rights))
        bp = self.breakpoints
        if not self.is_circle:
            ov = np.minimum(rights, bp[1:])
            ov -= np.maximum(lefts, bp[:-1])
        else:
            ov = self._circle_indicator(rights)
            ov -= self._circle_indicator(lefts)
        return np.maximum(ov, 0.0, out=ov)

    def _circle_indicator(self, x) -> np.ndarray:
        # Per-piece antiderivative of the periodic piece indicator at x, one
        # row per entry when x is a column.
        bp = self.breakpoints
        t0 = bp[0]
        k = np.floor(x - t0)
        xf = t0 + (x - t0 - k)
        lengths = np.diff(bp)
        partial = np.clip(xf - bp[:-1], 0.0, lengths)
        return k * lengths + partial

    def average(self, q) -> float:
        q = as_query(q)
        ov = self.overlaps(q)
        return float(np.dot(ov, self.values) / q.length)

    def central_moment(self, q, p: float) -> float:
        """Exact ``<|f - <f>_J|^p>_J`` over the query J."""
        if p < 1:
            raise InputError(f"moment order p must be >= 1, got {p}")
        q = as_query(q)
        ov = self.overlaps(q)
        m = np.dot(ov, self.values) / q.length
        return float(np.dot(ov, np.abs(self.values - m) ** p) / q.length)

    def distribution(self, q):
        """Value distribution of the function restricted to the query."""
        from .distributions import DiscreteDistribution

        q = as_query(q)
        ov = self.overlaps(q)
        mask = ov > 0
        return DiscreteDistribution(self.values[mask], ov[mask] / q.length)

    def restrict(self, q) -> "StepFunction":
        """Materialize the restriction to the query as an interval function."""
        q = as_query(q)
        self._check_query(q)
        if not self.is_circle:
            bp = self.breakpoints
            i0 = int(np.searchsorted(bp, q.left, side="right") - 1)
            i1 = int(np.searchsorted(bp, q.right, side="left"))
            i0 = max(i0, 0)
            cuts = np.concatenate(([q.left], bp[i0 + 1 : i1], [q.right]))
            vals = self.values[i0:i1]
            return StepFunction(Interval(q.left, q.right), cuts, vals)
        # unroll the needed arcs of the periodic realization
        t0 = self.breakpoints[0]
        k0 = int(np.floor(q.left - t0))
        cuts = [q.left]
        vals = []
        k = k0
        while True:
            base = k * 1.0
            for j in range(self.piece_count):
                lo = base + self.breakpoints[j]
                hi = base + self.breakpoints[j + 1]
                a = max(lo, q.left)
                b = min(hi, q.right)
                if b > a:
                    cuts.append(b)
                    vals.append(self.values[j])
            if base + self.breakpoints[-1] >= q.right:
                break
            k += 1
        return StepFunction(Interval(q.left, q.right), np.array(cuts), np.array(vals))

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "breakpoints": [float(x) for x in self.breakpoints],
            "values": [float(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StepFunction":
        return cls(domain_from_dict(d["domain"]), d["breakpoints"], d["values"])


# -- module-level operation surface -------------------------------------------


def average(f: StepFunction, q) -> float:
    """Exact average of ``f`` over the query interval."""
    return f.average(q)


def central_moment(f: StepFunction, q, p: float) -> float:
    """Exact centered p-th moment of ``f`` over the query interval."""
    return f.central_moment(q, p)


def distribution(f: StepFunction, q):
    """Exact value distribution of ``f`` restricted to the query."""
    return f.distribution(q)


class MonotoneMap:
    """A nondecreasing piecewise-linear map given by its knots.

    Outside the knot range the map continues with the slope of the first
    (resp. last) segment, so truncation ``min(x, N)`` is representable.
    """

    __slots__ = ("xs", "ys", "slopes")

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size < 2 or xs.shape != ys.shape:
            raise InputError("a monotone map needs at least two knots")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise InputError("knots must be finite")
        if not np.all(np.diff(xs) > 0):
            raise InputError("knot abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise InputError("knot ordinates must be nondecreasing")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "slopes", np.diff(ys) / np.diff(xs))

    def __setattr__(self, name, value):
        raise AttributeError("MonotoneMap is immutable")

    @property
    def lipschitz(self) -> float:
        """Largest slope (the map's Lipschitz constant)."""
        return float(self.slopes.max())

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        out = np.interp(v, self.xs, self.ys)
        below = v < self.xs[0]
        above = v > self.xs[-1]
        if np.any(below):
            out = np.where(below, self.ys[0] + self.slopes[0] * (v - self.xs[0]), out)
        if np.any(above):
            out = np.where(above, self.ys[-1] + self.slopes[-1] * (v - self.xs[-1]), out)
        return out

    @classmethod
    def identity(cls) -> "MonotoneMap":
        return cls([0.0, 1.0], [0.0, 1.0])

    @classmethod
    def truncation(cls, level: float) -> "MonotoneMap":
        """The map ``x -> min(x, level)``."""
        return cls([level - 1.0, level, level + 1.0], [level - 1.0, level, level])

    @classmethod
    def scale(cls, factor: float) -> "MonotoneMap":
        """The map ``x -> factor * x`` for factor >= 0."""
        if factor < 0:
            raise InputError("scale factor must be nonnegative")
        return cls([0.0, 1.0], [0.0, factor])

    def to_dict(self) -> dict:
        return {"knots": [[float(x), float(y)] for x, y in zip(self.xs, self.ys)]}

    @classmethod
    def from_dict(cls, d: dict) -> "MonotoneMap":
        knots = d["knots"]
        return cls([k[0] for k in knots], [k[1] for k in knots])


def compose_monotone(f: StepFunction, g: MonotoneMap) -> StepFunction:
    """Pointwise composition ``g(f)``; the piece structure is preserved."""
    return StepFunction(f.domain, f.breakpoints, g(f.values))


def monotone_rearrangement(f: StepFunction) -> StepFunction:
    """Reorder the pieces nondecreasing by value, preserving the distribution."""
    if f.is_circle:
        raise InputError("monotone rearrangement acts on interval functions")
    order = np.argsort(f.values, kind="stable")
    lens = f.lengths[order]
    vals = f.values[order]
    bp = np.concatenate(([f.breakpoints[0]], f.breakpoints[0] + np.cumsum(lens)))
    bp[-1] = f.breakpoints[-1]
    # merge adjacent equal values produced by the reordering
    keep = np.concatenate(([True], np.diff(vals) != 0))
    vals, bp = vals[keep], np.append(bp[:-1][keep], bp[-1])
    return StepFunction(Interval(f.breakpoints[0], f.breakpoints[-1]), bp, vals)
