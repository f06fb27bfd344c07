"""End-to-end verification suites exercised by the CLI and the test suite.

Each suite returns a report dict of the form ``{"checks": [...], "pass":
bool}`` where every check carries a name, the expected and observed values,
the tolerance used, and its own pass flag.  Randomized suites are seeded
and fully reproducible.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import jn_weak_envelope, lp_equiv_constant
from .construct import default_levels
from .distributions import tv_distance
from .martingales import (
    MomentDomain,
    compile_to_circle,
    log_staircase,
    power_staircase,
    validate_membership,
)
from .search import (
    SearchConfig,
    ap_constant,
    bmo_norm,
    circle_bmo_norm,
    exp_integral,
    reverse_holder_ratio,
    weak_distribution,
)
from .stepfun import (
    Interval,
    MonotoneMap,
    StepFunction,
    compose_monotone,
    monotone_rearrangement,
)

__all__ = [
    "random_step_function",
    "random_monotone_map",
    "verify_jn",
    "verify_weak",
    "verify_lp",
    "verify_rh",
    "verify_monotone",
]


def _check(name: str, expected, observed, tolerance: float) -> dict:
    if isinstance(expected, str):
        ok = bool(observed)
    else:
        ok = abs(observed - expected) <= tolerance
    return {
        "name": name,
        "expected": expected,
        "observed": observed,
        "tolerance": tolerance,
        "pass": ok,
    }


def _check_le(name: str, observed, bound, tolerance: float) -> dict:
    return {
        "name": name,
        "expected": f"<= {bound}",
        "observed": observed,
        "tolerance": tolerance,
        "pass": observed <= bound + tolerance,
    }


def _report(checks: list[dict]) -> dict:
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


def random_step_function(rng: np.random.Generator, max_pieces: int = 8) -> StepFunction:
    """A random step function on [0, 1] with 2..max_pieces pieces."""
    n = int(rng.integers(2, max_pieces + 1))
    cuts = np.sort(rng.uniform(0.05, 0.95, size=n - 1))
    bp = np.concatenate(([0.0], cuts, [1.0]))
    vals = rng.normal(size=n)
    return StepFunction(Interval(0.0, 1.0), bp, vals)


def random_monotone_map(rng: np.random.Generator, lipschitz: float = 1.0) -> MonotoneMap:
    """A random nondecreasing piecewise-linear map with slopes <= lipschitz."""
    k = int(rng.integers(2, 6))
    xs = np.sort(rng.uniform(-3.0, 3.0, size=k))
    while np.any(np.diff(xs) < 1e-3):
        xs = np.sort(rng.uniform(-3.0, 3.0, size=k))
    slopes = rng.uniform(0.0, lipschitz, size=k - 1)
    ys = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    return MonotoneMap(xs, ys)


def _normalized_corpus(seed: int, count: int):
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        f = random_step_function(rng)
        r = bmo_norm(f, 2.0, SearchConfig(certify=True))
        if r.lower < 1e-6:
            continue
        # divide by the certified upper rounded up to 20 significant bits: the
        # corpus stays in the unit ball the weak-type envelope assumes, and a
        # last-bit move of the bound moves it only across a point of that grid
        mantissa, exponent = math.frexp(r.upper)
        norm2 = math.ldexp(math.ceil(math.ldexp(mantissa, 20)), exponent - 20)
        g = compose_monotone(f, MonotoneMap.scale(1.0 / norm2))
        corpus.append(g)
    return rng, corpus


def verify_weak(seed: int = 0, count: int = 100, tol: float = 1e-9) -> dict:
    """Weak-type envelope check on a normalized random corpus."""
    _, corpus = _normalized_corpus(seed, count)
    lams = np.arange(0.25, 4.01, 0.25)
    worst = -math.inf
    for f in corpus:
        full = (0.0, 1.0)
        for lam in lams:
            excess = weak_distribution(f, full, float(lam)) - jn_weak_envelope(float(lam))
            worst = max(worst, excess)
    checks = [_check_le("weak_envelope_excess", worst, 0.0, tol)]
    return _report(checks)


def verify_lp(seed: int = 0, count: int = 100, tol: float = 1e-6) -> dict:
    """Oscillation-norm comparisons across p on a normalized random corpus."""
    _, corpus = _normalized_corpus(seed, count)
    checks = []
    worst_low = -math.inf
    worst_high_lo = -math.inf
    worst_high_hi = -math.inf
    for f in corpus:
        r2 = bmo_norm(f, 2.0)
        for p in (1.0, 1.5):
            rp = bmo_norm(f, p)
            # any witness interval is a valid lower bound for either norm
            n2 = max(r2.lower, f.central_moment(rp.witness, 2.0) ** 0.5)
            worst_low = max(worst_low, rp.lower - n2)
        for p in (3.0, 4.0):
            v = max(
                bmo_norm(f, p).lower,
                f.central_moment(r2.witness, p) ** (1.0 / p),
            )
            worst_high_lo = max(worst_high_lo, r2.lower - v)
            worst_high_hi = max(worst_high_hi, v - lp_equiv_constant(p) * max(r2.lower, 1.0))
    checks.append(_check_le("p_below_2_excess", worst_low, 0.0, tol))
    checks.append(_check_le("p_above_2_lower_deficit", worst_high_lo, 0.0, tol))
    checks.append(_check_le("p_above_2_upper_excess", worst_high_hi, 0.0, tol))
    return _report(checks)


def verify_monotone(seed: int = 0, count: int = 100, tol: float = 1e-6) -> dict:
    """Norm monotonicity under composition, truncation, rearrangement, restriction."""
    rng, corpus = _normalized_corpus(seed, count)
    worst = {"compose": -math.inf, "truncate": -math.inf, "rearrange": -math.inf, "restrict": -math.inf}
    tv_worst = 0.0
    for f in corpus:
        base = bmo_norm(f, 2.0).lower
        g = random_monotone_map(rng)
        worst["compose"] = max(
            worst["compose"], bmo_norm(compose_monotone(f, g), 2.0).lower - g.lipschitz * base
        )
        level = float(np.median(f.values))
        worst["truncate"] = max(
            worst["truncate"],
            bmo_norm(compose_monotone(f, MonotoneMap.truncation(level)), 2.0).lower - base,
        )
        sorted_f = monotone_rearrangement(f)
        worst["rearrange"] = max(worst["rearrange"], bmo_norm(sorted_f, 2.0).lower - base)
        tv_worst = max(
            tv_worst, tv_distance(sorted_f.distribution((0.0, 1.0)), f.distribution((0.0, 1.0)))
        )
        a = float(rng.uniform(0.0, 0.45))
        b = float(rng.uniform(a + 0.1, 1.0))
        worst["restrict"] = max(worst["restrict"], bmo_norm(f.restrict((a, b)), 2.0).lower - base)
    checks = [
        _check_le("compose_norm_excess", worst["compose"], 0.0, tol),
        _check_le("truncate_norm_excess", worst["truncate"], 0.0, tol),
        _check_le("rearrange_norm_excess", worst["rearrange"], 0.0, tol),
        _check_le("rearrange_distribution_tv", tv_worst, 0.0, 1e-12),
        _check_le("restrict_norm_excess", worst["restrict"], 0.0, tol),
    ]
    return _report(checks)


def verify_rh(tol_two_step: float = 1e-9, tol_staircase: float = 0.02, tol_rh: float = 1e-3) -> dict:
    """Weight-constant suite: two-step weight, power staircase, reverse Holder."""
    checks = []
    w = StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [2.0, 0.5])
    checks.append(_check("two_step_a2", 25.0 / 16.0, ap_constant(w, 2.0).lower, tol_two_step))
    stair, _ = power_staircase(0.5, 2.0, 1.05, 200)
    a2 = ap_constant(stair, 2.0).lower
    checks.append(_check("power_staircase_a2", 4.0 / 3.0, a2, tol_staircase * 4.0 / 3.0))
    rh = reverse_holder_ratio(stair, (0.0, 1.0), 2.0)
    checks.append(_check("power_staircase_rh", (0.5**0.5) * 1.5, rh, tol_rh))
    return _report(checks)


def verify_jn(
    delta: float = 0.3,
    target_mass: float = 2.0,
    max_depth: int = 60,
    lam_hom: float = 0.9995,
    r_long: int = 2000,
    max_periods: int = 6000,
) -> dict:
    """Drive the full transference mechanism at desk scale.

    Builds the logarithmic staircase with ratio ``exp(delta/5)``, finds the
    depth at which the exponential integral of the negated staircase
    exceeds ``target_mass``, validates the peeling martingale against the
    oscillation-ball domain of radius ``2/e + delta``, compiles it to a
    circle function, checks the distribution identity and the exponential
    integral exactly, and brackets the circle oscillation norm.

    Sign convention: the sharp integral bound concerns functions unbounded
    from above, so the staircase (a log-like function, unbounded below) is
    integrated with a negated exponent, matching ``log(1/x)``.
    """
    levels = default_levels(lam_hom)
    two_over_e = 2.0 / math.e
    lam = math.exp(delta / 5.0)
    c = two_over_e / (two_over_e + delta)
    checks = []

    found_n = None
    for n in range(1, max_depth + 1):
        f, _ = log_staircase(lam, n)
        mass = float(np.dot(f.lengths[1:], np.exp(-c * f.values[1:])))
        if mass > target_mass:
            found_n = n
            break
    checks.append(
        _check(
            "exp_mass_depth_found",
            "truthy",
            found_n is not None and found_n <= max_depth,
            0.0,
        )
    )
    if found_n is None:
        return _report(checks)

    f, M = log_staircase(lam, found_n)
    eps = two_over_e + delta
    report = validate_membership(M, MomentDomain(1.0, eps))
    checks.append(_check("membership_pass", "truthy", report.passed, 0.0))
    checks.append(_check_le("membership_worst_margin", report.worst_margin, 0.0, 0.0))

    expr = compile_to_circle(M, (lam_hom, levels))
    tv = tv_distance(expr.distribution(), M.root.value)
    checks.append(_check_le("compiled_distribution_tv", tv, 0.0, 1e-12))

    atom_sum = float(
        np.dot(M.root.value.weights, np.exp(-c * M.root.value.values))
    )
    integral = exp_integral(expr, None, -c)
    checks.append(_check("exp_integral_matches_atoms", atom_sum, integral, 1e-12))
    checks.append(_check_le("exp_integral_exceeds_target", target_mass, atom_sum, 0.0))

    cfg = SearchConfig(
        certify=True,
        r_long=r_long,
        max_periods=max_periods,
        refine_iters=24,
    )
    bracket = circle_bmo_norm(expr, 1.0, cfg)
    checks.append(_check_le("circle_norm_upper", bracket.upper, eps + 0.05, 0.0))
    checks.append(_check_le("circle_norm_lower_below_upper", bracket.lower, bracket.upper, 0.0))
    out = _report(checks)
    out["parameters"] = {
        "delta": delta,
        "lam": lam,
        "c": c,
        "depth": found_n,
        "lam_hom": lam_hom,
        "levels": levels,
        "norm_lower": bracket.lower,
        "norm_upper": bracket.upper,
        "sign_note": (
            "the integral uses exponent -c, i.e. the staircase is read as "
            "log(1/x); the printed sign of the source display is ambiguous "
            "for functions unbounded below"
        ),
    }
    return out
