"""Simple finite-depth martingales, membership validation, and compilation.

A martingale tree is a finite rooted tree whose nodes hold either plane
points or finite atomic distributions; each edge carries a positive
transition probability, and every node's value is the probability-weighted
mixture (barycenter) of its children's values.  Point-valued trees living
on a boundary curve lift to measure-valued trees whose node barycenters
reproduce the points.  Measure-valued trees with delta leaves compile to
circle functions through a left fold of gluings, which reproduces the root
distribution exactly; oscillation control of the compiled function is not
guaranteed by construction and must be verified by the circle searches.

Membership validation sweeps, for every node, the convex hull of its
children against a domain: for measure-valued domains the membership
functional is maximized along each edge of the children simplex by a fine
grid plus block golden refinement (the domain is not convex, hence the
sweep), both evaluated as batches of mixture weights,
with interiors of three-or-more-child simplices sampled on a barycentric
grid; for point-valued strip domains the functional is concave along
segments and the segment maxima are evaluated in closed form.  Tests are
strict (< 0) with signed margins reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import ConstructExpr, constant, default_levels, glue, periodize
from .distributions import DiscreteDistribution, dist_mix, tv_distance
from .errors import InputError
from .search import SearchConfig, _ApObjective, _BmoObjective, _golden_max
from .stepfun import Interval, StepFunction

__all__ = [
    "MartNode",
    "MartingaleTree",
    "MomentDomain",
    "ApDomain",
    "ParabolaStrip",
    "PowerCurveStrip",
    "Parabola",
    "PowerCurve",
    "ValidationReport",
    "validate_membership",
    "lift",
    "compile_to_circle",
    "log_staircase",
    "truncated_staircase",
    "power_staircase",
    "fold_alphas",
    "mix_children",
]

_STRUCT_TOL = 1e-12
_CURVE_TOL = 1e-10
_SWEEP_LEVEL = 5  # dyadic level of the edge sweep's mixture weights


def fold_alphas(probs) -> list[float]:
    """Cumulative mixing weights of a left fold over children."""
    alphas = []
    cum = float(probs[0])
    for w in probs[1:]:
        cum = cum + float(w)
        alphas.append(float(w) / cum)
    return alphas


def mix_children(dists, probs) -> DiscreteDistribution:
    """Probability-weighted mixture via the same left fold the compiler uses."""
    acc = dists[0]
    for d, a in zip(dists[1:], fold_alphas(probs)):
        acc = dist_mix(acc, d, a)
    return acc


class MartNode:
    """One martingale node: a value and weighted children."""

    __slots__ = ("value", "children")

    def __init__(self, value, children=()):
        if isinstance(value, DiscreteDistribution):
            self.value = value
        else:
            pt = np.asarray(value, dtype=float)
            if pt.shape != (2,) or not np.all(np.isfinite(pt)):
                raise InputError("point-valued nodes need a finite plane point")
            self.value = (float(pt[0]), float(pt[1]))
        kids = []
        for prob, node in children:
            if prob <= 0:
                raise InputError("transition probabilities must be positive")
            if not isinstance(node, MartNode):
                raise InputError("children must be MartNode instances")
            kids.append((float(prob), node))
        self.children = tuple(kids)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_measure(self) -> bool:
        return isinstance(self.value, DiscreteDistribution)


class MartingaleTree:
    """A finite-depth simple martingale, point- or measure-valued."""

    def __init__(self, root: MartNode):
        self.root = root
        self.kind = "measure" if root.is_measure else "point"

    # -- traversal ----------------------------------------------------------

    def walk(self):
        """Yield (path, node) pairs in preorder; the root path is ()."""
        stack = [((), self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((path + (i,), node.children[i][1]))

    @property
    def depth(self) -> int:
        return max(len(path) for path, _ in self.walk())

    # -- structural validation -------------------------------------------------

    def check_structure(self) -> None:
        """Raise InputError unless this is a structurally valid martingale (a measure node repeats its children's atom values exactly)."""
        for path, node in self.walk():
            if node.is_measure != (self.kind == "measure"):
                raise InputError(f"mixed node kinds at {list(path)}")
            if node.is_leaf:
                continue
            total = math.fsum(w for w, _ in node.children)
            if abs(total - 1.0) > 1e-9:
                raise InputError(
                    f"edge probabilities at {list(path)} sum to {total!r}, not 1"
                )
            probs = [w for w, _ in node.children]
            if self.kind == "measure":
                mixed = mix_children([c.value for _, c in node.children], probs)
                err = tv_distance(node.value, mixed)
                if err > _STRUCT_TOL:
                    raise InputError(
                        f"martingale property fails at {list(path)}: TV={err:.3e}"
                    )
            else:
                mx = math.fsum(w * c.value[0] for w, c in node.children)
                my = math.fsum(w * c.value[1] for w, c in node.children)
                err = math.hypot(node.value[0] - mx, node.value[1] - my)
                if err > _STRUCT_TOL:
                    raise InputError(
                        f"martingale property fails at {list(path)}: dist={err:.3e}"
                    )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        def encode(node: MartNode) -> dict:
            if node.is_measure:
                value = node.value.to_dict()
            else:
                value = [node.value[0], node.value[1]]
            return {
                "value": value,
                "children": [
                    {"prob": w, "node": encode(child)} for w, child in node.children
                ],
            }

        return {"kind": self.kind, "root": encode(self.root)}

    @classmethod
    def from_dict(cls, d: dict) -> "MartingaleTree":
        kind = d.get("kind")

        def decode(rec: dict) -> MartNode:
            value = rec["value"]
            if kind == "measure":
                value = DiscreteDistribution.from_dict(value)
            children = [(c["prob"], decode(c["node"])) for c in rec.get("children", [])]
            return MartNode(value, children)

        if kind not in ("measure", "point"):
            raise InputError(f"unknown martingale kind: {kind!r}")
        return cls(decode(d["root"]))


# -- membership domains ------------------------------------------------------------


class MomentDomain:
    """Distributions whose centered p-th moment is below ``eps**p``."""

    kind = "measure"

    def __init__(self, p: float, eps: float):
        if p < 1:
            raise InputError(f"moment order p must be >= 1, got {p}")
        if eps <= 0:
            raise InputError(f"radius must be positive, got {eps}")
        self.p = float(p)
        self.eps = float(eps)

    def functional(self, d: DiscreteDistribution) -> float:
        return d.central_moment(self.p) - self.eps**self.p

    def functional_rows(self, w: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``functional`` of each row of probability weights ``w`` over the atoms ``values``."""
        return _BmoObjective(self.p).raw_from_parts(w, values, 1.0) - self.eps**self.p

    def contains(self, d: DiscreteDistribution) -> bool:
        return self.functional(d) < 0


class ApDomain:
    """Positive distributions whose weight form stays below ``bound``."""

    kind = "measure"

    def __init__(self, p: float, bound: float):
        if p <= 1:
            raise InputError(f"weight exponent p must be > 1, got {p}")
        if bound <= 1:
            raise InputError(f"bound must exceed 1, got {bound}")
        self.p = float(p)
        self.bound = float(bound)

    def functional(self, d: DiscreteDistribution) -> float:
        return d.ap_form(self.p) - self.bound

    def functional_rows(self, w: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``functional`` of each row of probability weights ``w`` over the atoms ``values``."""
        return _ApObjective(self.p).raw_from_parts(w, values, 1.0) - self.bound

    def contains(self, d: DiscreteDistribution) -> bool:
        return self.functional(d) < 0


class ParabolaStrip:
    """Plane region between the parabola ``y = x^2`` and its lift by ``eps**2``."""

    kind = "point"

    def __init__(self, eps: float):
        if eps <= 0:
            raise InputError(f"strip width must be positive, got {eps}")
        self.eps = float(eps)

    def functional(self, pt) -> float:
        x, y = pt
        return y - x * x - self.eps**2

    def lower(self, pt) -> float:
        x, y = pt
        return y - x * x

    def on_boundary(self, pt) -> bool:
        return abs(self.lower(pt)) <= _CURVE_TOL

    def segment_max(self, a, b) -> float:
        # the functional is concave along segments: closed-form vertex
        x0, y0 = a
        dx, dy = b[0] - a[0], b[1] - a[1]
        cands = [self.functional(a), self.functional(b)]
        if dx != 0.0:
            t = (dy - 2.0 * x0 * dx) / (2.0 * dx * dx)
            if 0.0 < t < 1.0:
                cands.append(self.functional((x0 + t * dx, y0 + t * dy)))
        return max(cands)


class PowerCurveStrip:
    """Region between ``y = x^{-1/(p-1)}`` and its multiple by ``C``, x > 0."""

    kind = "point"

    def __init__(self, p: float, bound: float):
        if p <= 1:
            raise InputError(f"weight exponent p must be > 1, got {p}")
        if bound <= 1:
            raise InputError(f"bound must exceed 1, got {bound}")
        self.p = float(p)
        self.bound = float(bound)
        self.s = 1.0 / (p - 1.0)

    def functional(self, pt) -> float:
        x, y = pt
        if x <= 0:
            return math.inf
        return y - self.bound * x ** (-self.s)

    def lower(self, pt) -> float:
        x, y = pt
        if x <= 0:
            return -math.inf
        return y - x ** (-self.s)

    def on_boundary(self, pt) -> bool:
        x, y = pt
        return x > 0 and abs(y - x ** (-self.s)) <= _CURVE_TOL * max(1.0, abs(y))

    def segment_max(self, a, b) -> float:
        # concave along segments with x > 0: stationary point in closed form
        x0, y0 = a
        dx, dy = b[0] - a[0], b[1] - a[1]
        cands = [self.functional(a), self.functional(b)]
        if dx != 0.0 and dy != 0.0:
            rhs = -self.bound * self.s * dx / dy
            if rhs > 0:
                xs = rhs ** (1.0 / (self.s + 1.0))
                t = (xs - x0) / dx
                if 0.0 < t < 1.0:
                    cands.append(self.functional((x0 + t * dx, y0 + t * dy)))
        return max(cands)


# -- boundary curves ------------------------------------------------------------------


class Parabola:
    """The curve ``t -> (t, t^2)``."""

    def embed(self, t: float) -> tuple[float, float]:
        return (t, t * t)

    def param(self, pt) -> float:
        return float(pt[0])

    def on_curve(self, pt) -> bool:
        return abs(pt[1] - pt[0] * pt[0]) <= _CURVE_TOL


class PowerCurve:
    """The curve ``u -> (u, u^{-1/(p-1)})`` for u > 0."""

    def __init__(self, p: float):
        if p <= 1:
            raise InputError(f"weight exponent p must be > 1, got {p}")
        self.p = float(p)
        self.s = 1.0 / (p - 1.0)

    def embed(self, u: float) -> tuple[float, float]:
        if u <= 0:
            raise InputError("power curve parameters must be positive")
        return (u, u ** (-self.s))

    def param(self, pt) -> float:
        return float(pt[0])

    def on_curve(self, pt) -> bool:
        return pt[0] > 0 and abs(pt[1] - pt[0] ** (-self.s)) <= _CURVE_TOL * max(1.0, abs(pt[1]))


# -- validation --------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Membership validation outcome with signed margins per node."""

    passed: bool
    worst_margin: float
    margins: dict
    offending_path: list | None

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "offending_path": list(self.offending_path) if self.offending_path is not None else None,
            "margins": {"/".join(map(str, k)) or "root": v for k, v in self.margins.items()},
        }


def _edge_sweep_measure(dom, d0: DiscreteDistribution, d1: DiscreteDistribution, cfg: SearchConfig) -> float:
    """Largest functional over the mixtures ``(1 − t)·d0 + t·d1``: a dyadic sweep of t, refined around its best point.

    A batch of mixtures is one matrix of weight rows over the atoms of
    both ends, one row per t.
    """
    values = np.concatenate((d0.values, d1.values))

    def mixtures(ts):
        t = np.clip(ts, 0.0, 1.0).reshape(-1, 1)
        w = np.hstack(((1.0 - t) * d0.weights, t * d1.weights))
        return dom.functional_rows(w, values).reshape(np.shape(ts))

    ts = np.arange(1, 2**_SWEEP_LEVEL) / 2.0**_SWEEP_LEVEL
    vs = mixtures(ts)
    best_t, best = 0.0, max(dom.functional(d0), dom.functional(d1))
    k = int(vs.argmax())
    if vs[k] > best:
        best, best_t = float(vs[k]), float(ts[k])
    h = 1.0 / 2.0**_SWEEP_LEVEL
    _, refined = _golden_max(mixtures, [max(best_t - h, 0.0)], [min(best_t + h, 1.0)], cfg.refine_iters)
    return max(best, float(refined[0]))


def _barycentric_grid(m: int, resolution: int):
    """All weight vectors with entries k/resolution summing to 1, k >= 1."""

    def rec(parts_left, total_left):
        if parts_left == 1:
            yield (total_left,)
            return
        for k in range(1, total_left - parts_left + 2):
            for rest in rec(parts_left - 1, total_left - k):
                yield (k,) + rest

    for combo in rec(m, resolution):
        yield np.array(combo, dtype=float) / resolution


def _node_margin(dom, node: MartNode, cfg: SearchConfig) -> float:
    children = node.children
    if dom.kind == "measure":
        dists = [c.value for _, c in children]
        margin = max(dom.functional(d) for d in dists)
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                margin = max(margin, _edge_sweep_measure(dom, dists[i], dists[j], cfg))
        if len(dists) >= 3:
            for w in _barycentric_grid(len(dists), 8):
                margin = max(margin, dom.functional(mix_children(dists, w)))
        return margin
    pts = [c.value for _, c in children]
    margin = max(dom.functional(pt) for pt in pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            margin = max(margin, dom.segment_max(pts[i], pts[j]))
    if len(pts) >= 3:
        for w in _barycentric_grid(len(pts), 8):
            x = float(np.dot(w, [p[0] for p in pts]))
            y = float(np.dot(w, [p[1] for p in pts]))
            margin = max(margin, dom.functional((x, y)))
    return margin


def validate_membership(M: MartingaleTree, dom, cfg: SearchConfig | None = None) -> ValidationReport:
    """Check both martingale admissibility conditions against a domain.

    Condition 1: for every internal node the convex hull of its children's
    values stays strictly inside the domain (negative margin).  Condition 2:
    leaves are delta measures (measure-valued) or boundary-curve points
    (point-valued).  Structural violations raise InputError before any
    membership is evaluated.
    """
    cfg = cfg or SearchConfig()
    M.check_structure()
    if (dom.kind == "measure") != (M.kind == "measure"):
        raise InputError(f"domain expects {dom.kind}-valued martingales, tree is {M.kind}-valued")
    margins: dict = {}
    worst = -math.inf
    offender = None
    for path, node in M.walk():
        if node.is_leaf:
            if M.kind == "measure":
                if not node.value.is_delta:
                    return ValidationReport(False, math.inf, margins, list(path))
                margin = dom.functional(node.value)
            else:
                if not dom.on_boundary(node.value):
                    return ValidationReport(False, math.inf, margins, list(path))
                margin = dom.functional(node.value)
        else:
            if M.kind == "point":
                bad_lower = min(dom.lower(c.value) for _, c in node.children)
                if bad_lower < -_STRUCT_TOL:
                    return ValidationReport(False, math.inf, margins, list(path))
            margin = _node_margin(dom, node, cfg)
        margins[path] = margin
        if margin > worst:
            worst = margin
            offender = path
    passed = worst < 0
    return ValidationReport(passed, worst, margins, list(offender) if not passed else None)


# -- lift and compile ------------------------------------------------------------------------


def lift(M: MartingaleTree, curve) -> MartingaleTree:
    """Lift a point-valued martingale on a boundary curve to measures.

    Each node becomes the mixture of delta measures at its subtree leaves'
    curve parameters; node barycenters under the curve embedding reproduce
    the original points within 1e-10.
    """
    if M.kind != "point":
        raise InputError("lift expects a point-valued martingale")

    def build(node: MartNode) -> MartNode:
        if node.is_leaf:
            if not curve.on_curve(node.value):
                raise InputError(f"leaf {node.value} is not on the boundary curve")
            return MartNode(DiscreteDistribution.delta(curve.param(node.value)), ())
        lifted = [(w, build(child)) for w, child in node.children]
        dist = mix_children([c.value for _, c in lifted], [w for w, _ in lifted])
        bx = math.fsum(
            w * curve.embed(float(v))[0] for v, w in zip(dist.values, dist.weights)
        )
        by = math.fsum(
            w * curve.embed(float(v))[1] for v, w in zip(dist.values, dist.weights)
        )
        err = math.hypot(bx - node.value[0], by - node.value[1])
        if err > _CURVE_TOL * max(1.0, abs(node.value[0]), abs(node.value[1])):
            raise InputError(f"barycenter drift {err:.3e} while lifting")
        return MartNode(dist, lifted)

    return MartingaleTree(build(M.root))


def compile_to_circle(M: MartingaleTree, schedule: tuple[float, int] | None = None) -> ConstructExpr:
    """Fold a measure-valued martingale with delta leaves into a circle function.

    Leaves become constants; an internal node becomes a left fold of
    gluings over its children with cumulative weights, so the resulting
    node distribution equals the root distribution exactly.  ``schedule``
    is the ``(lam, levels)`` pair of homogenization parameters every gluing
    uses; None means ``lam = 0.9`` with ``default_levels(0.9)``.
    """
    if M.kind != "measure":
        raise InputError("compile expects a measure-valued martingale")
    M.check_structure()
    if schedule is None:
        schedule = (0.9, default_levels(0.9))
    lam, levels = float(schedule[0]), int(schedule[1])

    def build(node: MartNode) -> ConstructExpr:
        if node.is_leaf:
            if not node.value.is_delta:
                raise InputError("leaves must be delta measures")
            return constant(float(node.value.values[0]))
        exprs = [build(child) for _, child in node.children]
        probs = [w for w, _ in node.children]
        acc = exprs[0]
        for e, a in zip(exprs[1:], fold_alphas(probs)):
            acc = glue(acc, e, a, lam=lam, levels=levels)
        return acc

    return periodize(build(M.root))


# -- staircase factories ------------------------------------------------------------------------


def _log_piece_average(a: float, b: float) -> float:
    """Exact average of log over [a, b] with 0 < a < b."""
    return (b * (math.log(b) - 1.0) - a * (math.log(a) - 1.0)) / (b - a)


def _chain_martingale(piece_values, tail_value: float, lam: float) -> MartingaleTree:
    """The staircase chain: each step splits off one delta with weight 1 - 1/lam."""
    w_head = 1.0 - 1.0 / lam
    w_tail = 1.0 / lam
    node = MartNode(DiscreteDistribution.delta(tail_value), ())
    for v in reversed(piece_values):
        head = MartNode(DiscreteDistribution.delta(v), ())
        dist = mix_children([head.value, node.value], [w_head, w_tail])
        node = MartNode(dist, ((w_head, head), (w_tail, node)))
    return MartingaleTree(node)


def log_staircase(lam: float, N: int) -> tuple[StepFunction, MartingaleTree]:
    """The logarithmic staircase on [0, 1] and its peeling martingale.

    Pieces ``[lam^-k, lam^-(k-1)]`` carry the exact average of log over the
    piece; the residual ``[0, lam^-N]`` carries ``-N log lam``.  The
    martingale splits the tail atom into the next delta (weight 1 - 1/lam)
    and the remaining tail (weight 1/lam) at every step.
    """
    if lam <= 1:
        raise InputError(f"staircase ratio must exceed 1, got {lam}")
    if N < 1:
        raise InputError(f"staircase depth must be >= 1, got {N}")
    values = [_log_piece_average(lam**-k, lam ** -(k - 1)) for k in range(1, N + 1)]
    tail_value = -N * math.log(lam)
    bp = [0.0] + [lam**-k for k in range(N, 0, -1)] + [1.0]
    vals = [tail_value] + values[::-1]
    f = StepFunction(Interval(0.0, 1.0), np.array(bp), np.array(vals))
    return f, _chain_martingale(values, tail_value, lam)


def truncated_staircase(lam: float, N: int, n: int, s: float) -> StepFunction:
    """The staircase truncated above its n-th value, restricted to [0, s].

    Equals the full staircase below ``lam^-n`` and the constant n-th piece
    average above; its distributions over [0, s] trace the segment between
    the tail distribution and the delta at the n-th value.
    """
    if lam <= 1:
        raise InputError(f"staircase ratio must exceed 1, got {lam}")
    if not 1 <= n <= N:
        raise InputError(f"truncation index must lie in [1, {N}], got {n}")
    cut = lam ** -float(n)
    if s < cut:
        raise InputError(f"truncation domain must reach past {cut}, got {s}")
    values = [_log_piece_average(lam**-k, lam ** -(k - 1)) for k in range(1, N + 1)]
    tail_value = -N * math.log(lam)
    bp = [0.0] + [lam**-k for k in range(N, n - 1, -1)]
    vals = [tail_value] + values[n:][::-1]
    if s > cut:
        bp = bp + [s]
        vals = vals + [values[n - 1]]
    else:
        bp[-1] = s
    return StepFunction(Interval(0.0, s), np.array(bp), np.array(vals))


def power_staircase(
    alpha: float, p: float, lam: float, N: int, ap_bound: float | None = None
) -> tuple[StepFunction, MartingaleTree]:
    """A positive power-law staircase weight and its peeling martingale.

    Pieces carry the exact averages of ``x^alpha``; integrability of both
    the weight and its dual power requires ``-1 < alpha < p - 1``.  When
    ``ap_bound`` is given the martingale is validated against the weight
    domain with that bound and a failing validation raises InputError.
    """
    if p <= 1:
        raise InputError(f"weight exponent p must be > 1, got {p}")
    if not (-1.0 < alpha < p - 1.0):
        raise InputError(
            f"need -1 < alpha < p-1 for integrability, got alpha={alpha}, p={p}"
        )
    if lam <= 1:
        raise InputError(f"staircase ratio must exceed 1, got {lam}")
    if N < 1:
        raise InputError(f"staircase depth must be >= 1, got {N}")

    def piece_avg(a: float, b: float) -> float:
        if alpha == 0.0:
            return 1.0
        return (b ** (alpha + 1.0) - a ** (alpha + 1.0)) / ((alpha + 1.0) * (b - a))

    values = [piece_avg(lam**-k, lam ** -(k - 1)) for k in range(1, N + 1)]
    tail_value = (lam**-N) ** alpha / (alpha + 1.0) if alpha != 0.0 else 1.0
    bp = [0.0] + [lam**-k for k in range(N, 0, -1)] + [1.0]
    vals = [tail_value] + values[::-1]
    f = StepFunction(Interval(0.0, 1.0), np.array(bp), np.array(vals))
    M = _chain_martingale(values, tail_value, lam)
    if ap_bound is not None:
        report = validate_membership(M, ApDomain(p, ap_bound))
        if not report.passed:
            raise InputError(
                f"staircase martingale leaves the weight domain "
                f"(worst margin {report.worst_margin:.3e})"
            )
    return f, M
