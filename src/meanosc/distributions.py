"""Finite atomic probability distributions and their exact functionals.

Atoms are real numbers.  Two atoms are the same exactly when their values
are equal, at any value scale: equal atoms merge at construction.
Homogenizations, gluings and mixtures copy atom values without
arithmetic, so their distributions compare exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "DiscreteDistribution",
    "dist_mix",
    "tv_distance",
    "dist_functional",
    "FUNCTIONAL_NAMES",
]

_SUM_TOL = 1e-9


def _merge(values: np.ndarray, weights: np.ndarray):
    """Sort the atoms stably and merge equal neighbours, adding their weights."""
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    newgroup = np.concatenate(([True], np.diff(values) != 0))
    idx = np.cumsum(newgroup) - 1
    out_vals = values[newgroup]
    out_w = np.zeros(out_vals.shape[0])
    np.add.at(out_w, idx, weights)
    return out_vals, out_w


class DiscreteDistribution:
    """A finite convex combination of point masses.

    Parameters
    ----------
    values : array-like, shape (n,)
        Atom locations.
    weights : array-like, shape (n,)
        Positive masses summing to 1.
    """

    __slots__ = ("values", "weights")

    def __init__(self, values, weights):
        vals = np.asarray(values, dtype=float)
        w = np.asarray(weights, dtype=float)
        if vals.ndim == 0:
            vals = vals.reshape(1)
        if vals.ndim != 1:
            raise InputError("atom values must be scalars")
        if w.shape != (vals.shape[0],):
            raise InputError("one weight per atom required")
        if vals.shape[0] == 0:
            raise InputError("a distribution needs at least one atom")
        if not np.all(np.isfinite(vals)) or not np.all(np.isfinite(w)):
            raise InputError("atoms and weights must be finite")
        if np.any(w <= 0):
            raise InputError("atom weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise InputError(f"weights must sum to 1, got {total!r}")
        vals, w = _merge(vals, w)
        vals.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def _presorted(cls, values: np.ndarray, weights: np.ndarray) -> "DiscreteDistribution":
        # internal fast path: caller guarantees sorted, merged, normalized atoms
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        object.__setattr__(obj, "weights", weights)
        return obj

    # -- structure -------------------------------------------------------------

    @property
    def atom_count(self) -> int:
        return self.values.shape[0]

    @property
    def is_delta(self) -> bool:
        return self.atom_count == 1

    def __repr__(self) -> str:
        return f"DiscreteDistribution(atoms={self.atom_count})"

    def _require_positive(self, what: str) -> None:
        if np.any(self.values <= 0):
            raise InputError(f"{what} requires strictly positive atoms")

    # -- exact functionals -------------------------------------------------------

    def barycenter(self) -> float:
        """Mean of the atoms."""
        return float(np.dot(self.weights, self.values))

    def central_moment(self, p: float) -> float:
        """``int |t - mean|^p dmu`` for p >= 1."""
        if p < 1:
            raise InputError(f"moment order p must be >= 1, got {p}")
        m = np.dot(self.weights, self.values)
        return float(np.dot(self.weights, np.abs(self.values - m) ** p))

    def exp_integral(self, c: float) -> float:
        """``int e^{c t} dmu``; overflow reports +inf rather than failing."""
        with np.errstate(over="ignore"):
            out = float(np.dot(self.weights, np.exp(c * self.values)))
        return out

    def tail_mass(self, lam: float) -> float:
        """Mass of ``{|t - mean| >= lam}``."""
        if lam <= 0:
            raise InputError(f"tail threshold must be positive, got {lam}")
        m = np.dot(self.weights, self.values)
        return float(self.weights[np.abs(self.values - m) >= lam].sum())

    def power_mean(self, q: float) -> float:
        """``(int t^q dmu)^{1/q}`` for positive atoms."""
        self._require_positive("power mean")
        return float(np.dot(self.weights, self.values**q) ** (1.0 / q))

    def ap_form(self, p: float) -> float:
        """``(int t dmu) (int t^{-1/(p-1)} dmu)^{p-1}`` for positive atoms."""
        if p <= 1:
            raise InputError(f"ap form requires p > 1, got {p}")
        self._require_positive("ap form")
        a = np.dot(self.weights, self.values)
        b = np.dot(self.weights, self.values ** (-1.0 / (p - 1.0)))
        return float(a * b ** (p - 1.0))

    def geometric_form(self) -> float:
        """``(int t dmu) exp(-int log t dmu)``, the A_infinity functional."""
        self._require_positive("geometric form")
        a = np.dot(self.weights, self.values)
        g = np.dot(self.weights, np.log(self.values))
        return float(a * np.exp(-g))

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        atoms = [
            {"value": float(v), "weight": float(w)}
            for v, w in zip(self.values, self.weights)
        ]
        return {"atoms": atoms}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteDistribution":
        atoms = d["atoms"]
        return cls([a["value"] for a in atoms], [a["weight"] for a in atoms])

    @classmethod
    def delta(cls, value) -> "DiscreteDistribution":
        return cls([value], [1.0])


def dist_mix(d0: DiscreteDistribution, d1: DiscreteDistribution, alpha: float) -> DiscreteDistribution:
    """Exact convex combination ``(1-alpha) d0 + alpha d1`` with atom merging."""
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"mixing weight must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return d0
    if alpha == 1.0:
        return d1
    values = np.concatenate((d0.values, d1.values))
    weights = np.concatenate(((1.0 - alpha) * d0.weights, alpha * d1.weights))
    return DiscreteDistribution(values, weights)


def tv_distance(d0: DiscreteDistribution, d1: DiscreteDistribution) -> float:
    """Total-variation distance; an atom of one matches an atom of the other when their values are equal."""
    _, diff = _merge(np.concatenate((d0.values, d1.values)), np.concatenate((d0.weights, -d1.weights)))
    return 0.5 * float(np.abs(diff).sum())


FUNCTIONAL_NAMES = (
    "barycenter",
    "central_p_moment",
    "exp_integral",
    "tail_mass",
    "power_mean",
    "ap_form",
)


def dist_functional(d: DiscreteDistribution, name: str, **params) -> float:
    """Evaluate a named functional of the distribution.

    Names: ``barycenter``; ``central_p_moment`` (param ``p``);
    ``exp_integral`` (param ``c``); ``tail_mass`` (param ``lam``);
    ``power_mean`` (param ``q``); ``ap_form`` (param ``p``).
    """
    if name == "barycenter":
        return d.barycenter()
    if name in ("central_p_moment", "central_moment"):
        return d.central_moment(params["p"])
    if name == "exp_integral":
        return d.exp_integral(params.get("c", params.get("C")))
    if name == "tail_mass":
        return d.tail_mass(params.get("lam", params.get("lambda")))
    if name == "power_mean":
        return d.power_mean(params["q"])
    if name == "ap_form":
        return d.ap_form(params["p"])
    raise InputError(f"unknown functional: {name!r}")
