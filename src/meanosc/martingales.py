"""Simple finite-depth martingales, membership validation, and compilation.

A martingale tree is a finite rooted tree whose nodes hold finite atomic
distributions; each edge carries a positive transition probability, and
every node's distribution is the probability-weighted mixture of its
children's.  Trees with delta leaves compile to circle functions through a
left fold of gluings, which reproduces the root distribution exactly;
oscillation control of the compiled function is not guaranteed by
construction and must be verified by the circle searches.

Membership validation checks, for every node, the convex hull of its
children against a domain.  The domains are not convex, but every
functional's maximum over a hull lies on one of its edges (the edge
principle).  The mixture's mean is linear in the weights, and with it
held fixed the functional is linear in them or increasing in a linear
function of them: the centered moments are linear, and the weight form
``a·b^(p−1)`` is increasing in ``b``, the mean of ``x^(−1/(p−1))``.  So the maximum over the
slice of the hull at a fixed mean sits at a vertex of the slice, whose
weights have at most two nonzero entries: a point of an edge.  Each edge is
maximized in closed form (every domain's ``segment_max``): along mixtures
of two distributions the variance is a concave quadratic, the mean
deviation a quadratic between the times where the mean crosses an atom,
and the weight form log-concave.  Tests are strict (< 0) with signed
margins reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import ConstructExpr, constant, default_levels, glue, periodize
from .distributions import DiscreteDistribution, dist_mix, tv_distance
from .errors import InputError, decoder
from .stepfun import Interval, StepFunction

__all__ = [
    "MartNode",
    "MartingaleTree",
    "MomentDomain",
    "ApDomain",
    "ValidationReport",
    "validate_membership",
    "compile_to_circle",
    "log_staircase",
    "power_staircase",
    "fold_alphas",
    "mix_children",
]

_STRUCT_TOL = 1e-12


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
    """One martingale node: a distribution and weighted children."""

    __slots__ = ("value", "children")

    def __init__(self, value, children=()):
        if not isinstance(value, DiscreteDistribution):
            raise InputError("node values must be DiscreteDistribution instances")
        self.value = value
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


class MartingaleTree:
    """A finite-depth simple measure-valued martingale."""

    def __init__(self, root: MartNode):
        self.root = root

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
        """Raise InputError unless this is a structurally valid martingale (a node repeats its children's atom values exactly)."""
        for path, node in self.walk():
            if node.is_leaf:
                continue
            total = math.fsum(w for w, _ in node.children)
            if abs(total - 1.0) > 1e-9:
                raise InputError(
                    f"edge probabilities at {list(path)} sum to {total!r}, not 1"
                )
            probs = [w for w, _ in node.children]
            mixed = mix_children([c.value for _, c in node.children], probs)
            err = tv_distance(node.value, mixed)
            if err > _STRUCT_TOL:
                raise InputError(
                    f"martingale property fails at {list(path)}: TV={err:.3e}"
                )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        def encode(node: MartNode) -> dict:
            return {
                "value": node.value.to_dict(),
                "children": [
                    {"prob": w, "node": encode(child)} for w, child in node.children
                ],
            }

        return {"kind": "measure", "root": encode(self.root)}

    @classmethod
    @decoder
    def from_dict(cls, d: dict) -> "MartingaleTree":
        def decode(rec: dict) -> MartNode:
            value = DiscreteDistribution.from_dict(rec["value"])
            children = [(c["prob"], decode(c["node"])) for c in rec.get("children", [])]
            return MartNode(value, children)

        if d.get("kind") != "measure":
            raise InputError(f"unknown martingale kind: {d.get('kind')!r}")
        return cls(decode(d["root"]))


# -- membership domains ------------------------------------------------------------


def _segment_max(dom, a: DiscreteDistribution, b: DiscreteDistribution, t: float) -> float:
    """The largest functional at the ends of the segment ``(1 − t)·a + t·b``, and at ``t`` if it lies between them."""
    ends = max(dom.functional(a), dom.functional(b))
    if not 0.0 < t < 1.0:
        return ends
    return max(ends, dom.functional(dist_mix(a, b, t)))


def _variance_t(d0: DiscreteDistribution, d1: DiscreteDistribution) -> float:
    """The vertex of the mixtures' variance ``(1 − t)·v0 + t·v1 + t(1 − t)·(m1 − m0)²``, nan if it is affine."""
    dm2 = (d1.barycenter() - d0.barycenter()) ** 2
    return (d1.central_moment(2.0) - d0.central_moment(2.0) + dm2) / (2.0 * dm2) if dm2 else math.nan


def _deviation_t(d0: DiscreteDistribution, d1: DiscreteDistribution) -> float:
    """The best t for the mixtures' mean deviation ``∫|x − m|``, nan if it is affine.

    The mean m is affine in t, so between the times where m crosses an
    atom the deviation is a quadratic in t.  With the atoms sorted by
    crossing time, those crossed so far count with one sign and the rest
    with the other, so prefix sums give the coefficients of every piece
    at once; the best of the pieces' ends and concave vertices wins.
    """
    m0 = d0.barycenter()
    dm = d1.barycenter() - m0
    if dm == 0.0:
        return math.nan
    x = np.concatenate((d0.values, d1.values)) - m0
    order = np.argsort(x / dm, kind="stable")
    x, dw = x[order], np.concatenate((-d0.weights, d1.weights))[order]
    w = np.concatenate((d0.weights, 0.0 * d1.weights))[order]
    ends = np.clip(np.concatenate(([-np.inf], x / dm, [np.inf])), 0.0, 1.0)
    live = ends[1:] > ends[:-1]
    lo, hi = ends[:-1][live], ends[1:][live]
    # the coefficients of 1, t and t² of each atom's (w + t·dw)·(x − t·dm); piece j has the first j atoms crossed
    prefix = np.cumsum(np.insert(np.stack((w * x, dw * x - w * dm, -dw * dm)), 0, 0.0, axis=1), axis=1)
    q0, q1, q2 = (np.sign(dm) * (prefix[:, -1:] - 2.0 * prefix))[:, live]
    vertex = np.clip(np.divide(-q1, 2.0 * q2, out=lo.copy(), where=q2 < 0.0), lo, hi)
    ts = np.stack((lo, hi, vertex))
    return float(ts.flat[np.argmax(q0 + ts * (q1 + ts * q2))])


def _weight_t(d0: DiscreteDistribution, d1: DiscreteDistribution, p: float) -> float:
    """The stationary point of the log-concave ``a·b^(p−1)`` along the mixtures, nan if it is monotone.

    ``a`` and ``b``, the means of x and of ``x^(−1/(p−1))``, are affine in t.
    """
    (a0, b0), (a1, b1) = ((d.barycenter(), float(np.dot(d.weights, d.values ** (-1.0 / (p - 1.0))))) for d in (d0, d1))
    da, db = a1 - a0, b1 - b0
    return -(da * b0 + (p - 1.0) * db * a0) / (p * da * db) if da and db else math.nan


class MomentDomain:
    """Distributions whose centered p-th moment is below ``eps**p``; p is 1 or 2, the orders with closed-form edge maxima."""

    def __init__(self, p: float, eps: float):
        if p not in (1, 2):
            raise InputError(f"moment order p must be 1 or 2, got {p}")
        if eps <= 0:
            raise InputError(f"radius must be positive, got {eps}")
        self.p = float(p)
        self.eps = float(eps)

    def functional(self, d: DiscreteDistribution) -> float:
        return d.central_moment(self.p) - self.eps**self.p

    def segment_max(self, d0: DiscreteDistribution, d1: DiscreteDistribution) -> float:
        return _segment_max(self, d0, d1, (_variance_t if self.p == 2.0 else _deviation_t)(d0, d1))


class ApDomain:
    """Positive distributions whose weight form stays below ``bound``."""

    def __init__(self, p: float, bound: float):
        if p <= 1:
            raise InputError(f"weight exponent p must be > 1, got {p}")
        if bound <= 1:
            raise InputError(f"bound must exceed 1, got {bound}")
        self.p = float(p)
        self.bound = float(bound)

    def functional(self, d: DiscreteDistribution) -> float:
        return d.ap_form(self.p) - self.bound

    def segment_max(self, d0: DiscreteDistribution, d1: DiscreteDistribution) -> float:
        return _segment_max(self, d0, d1, _weight_t(d0, d1, self.p))


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


def _node_margin(dom, node: MartNode) -> float:
    """The largest functional over the hull of the node's children: over its vertices and edges, by the edge principle."""
    vals = [c.value for _, c in node.children]
    margin = max(dom.functional(v) for v in vals)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            margin = max(margin, dom.segment_max(vals[i], vals[j]))
    return margin


def validate_membership(M: MartingaleTree, dom) -> ValidationReport:
    """Check both martingale admissibility conditions against a domain.

    Condition 1: for every internal node the convex hull of its children's
    values stays strictly inside the domain (negative margin).  Condition 2:
    leaves are delta measures.  Structural violations raise InputError
    before any membership is evaluated.
    """
    M.check_structure()
    margins: dict = {}
    worst = -math.inf
    offender = None
    for path, node in M.walk():
        if node.is_leaf:
            if not node.value.is_delta:
                return ValidationReport(False, math.inf, margins, list(path))
            margin = dom.functional(node.value)
        else:
            margin = _node_margin(dom, node)
        margins[path] = margin
        if margin > worst:
            worst = margin
            offender = path
    passed = worst < 0
    return ValidationReport(passed, worst, margins, list(offender) if not passed else None)


# -- compile ------------------------------------------------------------------------------------


def compile_to_circle(M: MartingaleTree, schedule: tuple[float, int] | None = None) -> ConstructExpr:
    """Fold a measure-valued martingale with delta leaves into a circle function.

    Leaves become constants; an internal node becomes a left fold of
    gluings over its children with cumulative weights, so the resulting
    node distribution equals the root distribution exactly.  ``schedule``
    is the ``(lam, levels)`` pair of homogenization parameters every gluing
    uses; None means ``lam = 0.9`` with ``default_levels(0.9)``.
    """
    M.check_structure()
    if schedule is None:
        schedule = (0.9, default_levels(0.9))
    lam, levels = float(schedule[0]), int(schedule[1])

    # children first, by path: a node object repeated in the tree compiles to separate copies
    built: dict[tuple, ConstructExpr] = {}
    for path, node in reversed(list(M.walk())):
        if node.is_leaf:
            if not node.value.is_delta:
                raise InputError("leaves must be delta measures")
            built[path] = constant(float(node.value.values[0]))
            continue
        exprs = [built.pop(path + (i,)) for i in range(len(node.children))]
        probs = [w for w, _ in node.children]
        acc = exprs[0]
        for e, a in zip(exprs[1:], fold_alphas(probs)):
            acc = glue(acc, e, a, lam=lam, levels=levels)
        built[path] = acc
    return periodize(built[()])


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
