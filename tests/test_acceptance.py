"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Each criterion also enforces its runtime budget.
"""
import contextlib
import math
import time

import numpy as np

from meanosc.constants import c3p, jn_weak_envelope, lp_equiv_constant
from meanosc.construct import glue, homogenize, leaf, periodize
from meanosc.distributions import DiscreteDistribution, dist_mix, tv_distance
from meanosc.martingales import (
    MartNode,
    MartingaleTree,
    MomentDomain,
    log_staircase,
    validate_membership,
)
from meanosc.search import SearchConfig, bmo_norm, circle_bmo_norm, weak_distribution
from meanosc.stepfun import Interval, StepFunction
from meanosc.verify import verify_jn, verify_lp, verify_monotone, verify_rh, verify_weak


@contextlib.contextmanager
def criterion(number: int, budget_seconds: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"
    print(f"CRITERION {number}: PASS ({elapsed:.1f}s)")


def sign_step() -> StepFunction:
    return StepFunction(Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])


def test_criterion_1_exactness():
    with criterion(1, 1.0):
        f = sign_step()
        cfg = SearchConfig(refine_iters=24)
        for p in (1.0, 2.0, 3.0):
            assert abs(bmo_norm(f, p, cfg).lower - 1.0) <= 1e-12
        assert abs(weak_distribution(f, (-1.0, 1.0), 1.0) - 1.0) <= 1e-12


def test_criterion_2_interior_optimum():
    with criterion(2, 1.0):
        f = StepFunction(Interval(0.0, 1.0), [0.0, 0.75, 1.0], [0.0, 1.0])
        cfg = SearchConfig(refine_iters=48)
        for p in (1.0, 2.0):
            report = bmo_norm(f, p, cfg)
            assert abs(report.lower - 0.5) <= 1e-6
            assert abs(report.witness.length - 0.5) <= 1e-3
        # breakpoint-pairs-only oracle stalls at 0.375
        bp = f.breakpoints
        bp_only = max(
            f.central_moment((bp[i], bp[j]), 1.0)
            for i in range(len(bp))
            for j in range(i + 1, len(bp))
        )
        assert abs(bp_only - 0.375) <= 1e-12


def test_criterion_3_constant_formulas():
    with criterion(3, 1.0):
        assert abs(c3p(1.0) - 2.0 / math.e) <= 1e-12
        assert abs(c3p(2.0) - 1.0) <= 1e-10
        assert abs(lp_equiv_constant(4.0) - 12.0**0.25) <= 1e-12
        for lam in (1.0, 2.0):
            assert abs(jn_weak_envelope(lam - 1e-14) - jn_weak_envelope(lam + 1e-14)) < 1e-12


def _log_oscillation(a: float, b: float) -> float:
    """Exact first central moment of log over [a, b], closed form."""

    def F(x: float) -> float:
        return 0.0 if x == 0.0 else x * (math.log(x) - 1.0)

    c = (F(b) - F(a)) / (b - a)

    def G(x: float) -> float:
        return 0.0 if x == 0.0 else x * (math.log(x) - 1.0) - c * x

    x0 = min(max(math.exp(c), a), b)
    return (G(b) + G(a) - 2.0 * G(x0)) / (b - a)


def test_criterion_4_staircase_convergence():
    with criterion(4, 120.0):
        target = 2.0 / math.e
        # independent closed-form oracle over an interval grid
        lefts = np.concatenate(([0.0], np.geomspace(1e-6, 0.5, 25)))
        rights = np.geomspace(1e-5, 1.0, 25)
        oracle = max(
            _log_oscillation(float(a), float(b))
            for a in lefts
            for b in rights
            if b > a + 1e-12
        )
        assert abs(oracle - target) <= 1e-4

        f, _ = log_staircase(1.02, 400)
        report = bmo_norm(f, 1.0, SearchConfig(refine_iters=32))
        assert abs(report.lower - target) <= 0.02

        # monotone trend toward 2/e as the staircase refines
        trend = [
            bmo_norm(log_staircase(lam, n)[0], 1.0, SearchConfig(refine_iters=16)).lower
            for lam, n in ((1.3, 12), (1.1, 60), (1.02, 400))
        ]
        assert trend[0] <= trend[1] <= trend[2] <= target + 1e-9


def test_criterion_5_gluing_homogenization():
    with criterion(5, 300.0):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
            e0 = leaf(StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n)))
            m = int(rng.integers(1, 5))
            bp2 = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, m - 1)), [1.0]))
            e1 = leaf(StepFunction(Interval(0.0, 1.0), bp2, rng.normal(size=m)))
            lam = float(rng.uniform(0.5, 0.95))
            alpha = float(rng.uniform(0.05, 0.95))
            h = homogenize(e0, lam, 5)
            assert tv_distance(h.distribution(), e0.distribution()) <= 1e-12
            g = glue(e0, e1, alpha, lam, 5)
            mixture = dist_mix(e0.distribution(), e1.distribution(), alpha)
            assert tv_distance(g.distribution(), mixture) <= 1e-12

        cfg = SearchConfig(refine_iters=24)
        lowers = []
        for lam in (0.5, 0.9, 0.99):
            p = periodize(homogenize(leaf(sign_step()), lam))
            lowers.append(circle_bmo_norm(p, 2.0, cfg).lower)
        assert lowers[0] >= lowers[1] - 1e-9
        assert lowers[1] >= lowers[2] - 1e-9
        assert lowers[2] <= 1.1


def test_criterion_6_membership_validation():
    with criterion(6, 1.0):
        root = MartNode(
            DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]),
            (
                (0.5, MartNode(DiscreteDistribution.delta(-1.0))),
                (0.5, MartNode(DiscreteDistribution.delta(1.0))),
            ),
        )
        tree = MartingaleTree(root)
        assert not validate_membership(tree, MomentDomain(2.0, 0.999)).passed
        assert not validate_membership(tree, MomentDomain(2.0, 1.0)).passed
        report = validate_membership(tree, MomentDomain(2.0, 1.05))
        assert report.passed
        assert abs(report.worst_margin - (1.0 - 1.05**2)) <= 1e-9


def test_criterion_7_weight_suite():
    with criterion(7, 120.0):
        report = verify_rh()
        assert report["pass"], report


def test_criterion_8_transference():
    with criterion(8, 120.0):
        report = verify_jn(delta=0.3, target_mass=2.0, max_depth=60)
        assert report["pass"], report
        params = report["parameters"]
        assert params["depth"] <= 60
        assert params["norm_upper"] <= 2.0 / math.e + 0.3 + 0.05


def test_criterion_9_inequality_suites():
    with criterion(9, 600.0):
        for suite in (verify_weak, verify_lp, verify_monotone):
            report = suite(seed=0, count=100)
            assert report["pass"], report
