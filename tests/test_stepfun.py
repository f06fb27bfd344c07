"""Exact step-function calculus against independent oracles."""
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from meanosc.distributions import tv_distance
from meanosc.errors import InputError
from meanosc.stepfun import (
    CIRCLE,
    Interval,
    IntervalQuery,
    MonotoneMap,
    StepFunction,
    average,
    central_moment,
    compose_monotone,
    distribution,
    monotone_rearrangement,
)


def sign_step() -> StepFunction:
    return StepFunction(Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])


def split_step() -> StepFunction:
    return StepFunction(Interval(0.0, 1.0), [0.0, 0.75, 1.0], [0.0, 1.0])


def _midpoint_grid(f: StepFunction, left: float, right: float, per_segment: int = 16):
    """Midpoint sample grid refined at the breakpoints (exact for step functions)."""
    inner = f.breakpoints[(f.breakpoints > left) & (f.breakpoints < right)]
    cuts = np.concatenate(([left], inner, [right]))
    xs = []
    ws = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = (b - a) / per_segment
        xs.extend(a + (np.arange(per_segment) + 0.5) * h)
        ws.extend([h] * per_segment)
    return np.array(xs), np.array(ws)


def riemann_average(f: StepFunction, left: float, right: float) -> float:
    xs, ws = _midpoint_grid(f, left, right)
    vals = np.array([f.evaluate(x) for x in xs])
    return float(np.dot(ws, vals) / (right - left))


def riemann_moment(f: StepFunction, left: float, right: float, p: float) -> float:
    """Midpoint Riemann oracle for the centered p-th moment."""
    xs, ws = _midpoint_grid(f, left, right)
    vals = np.array([f.evaluate(x) for x in xs])
    m = np.dot(ws, vals) / (right - left)
    return float(np.dot(ws, np.abs(vals - m) ** p) / (right - left))


# -- averages -----------------------------------------------------------------


def test_sign_average_symmetry():
    assert average(sign_step(), (-1.0, 1.0)) == 0.0


def test_constant_average_identity():
    f = StepFunction(Interval(0.0, 2.0), [0.0, 2.0], [3.5])
    assert average(f, (0.3, 1.7)) == 3.5


def test_log_piece_average_against_quadrature():
    # closed form (b(log b - 1) - a(log a - 1)) / (b - a) on [1/e, 1]
    from meanosc.martingales import log_staircase

    f, _ = log_staircase(math.e, 1)
    got = average(f, (1.0 / math.e, 1.0))
    assert got == pytest.approx(-0.418023, abs=1e-6)
    oracle, _ = scipy.integrate.quad(math.log, 1.0 / math.e, 1.0)
    oracle /= 1.0 - 1.0 / math.e
    assert got == pytest.approx(oracle, abs=1e-12)


# -- centered moments ----------------------------------------------------------


def test_sign_second_moment_is_one():
    assert central_moment(sign_step(), (-1.0, 1.0), 2.0) == 1.0


def test_split_first_moment_hand_value():
    assert central_moment(split_step(), (0.5, 1.0), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_constant_moment_zero():
    f = StepFunction(Interval(0.0, 1.0), [0.0, 1.0], [2.0])
    for p in (1.0, 2.0, 3.7):
        assert central_moment(f, (0.2, 0.9), p) == 0.0


def test_moment_rejects_p_below_one():
    with pytest.raises(InputError):
        central_moment(sign_step(), (-1.0, 1.0), 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_moment_matches_riemann_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
    f = StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))
    left = float(rng.uniform(0.0, 0.6))
    right = float(rng.uniform(left + 0.2, 1.0))
    p = float(rng.choice([1.0, 2.0, 3.0]))
    exact = f.central_moment((left, right), p)
    assert exact == pytest.approx(riemann_moment(f, left, right, p), abs=1e-9)
    assert f.average((left, right)) == pytest.approx(riemann_average(f, left, right), abs=1e-9)


# -- distributions over queries --------------------------------------------------


def test_sign_distribution_halves():
    d = distribution(sign_step(), (-1.0, 1.0))
    assert np.allclose(d.values, [-1.0, 1.0])
    assert np.allclose(d.weights, [0.5, 0.5])


def test_sign_distribution_right_half():
    d = distribution(sign_step(), (0.0, 1.0))
    assert d.is_delta and d.values[0] == 1.0


def test_split_distribution_over_right_half():
    d = distribution(split_step(), (0.5, 1.0))
    assert np.allclose(d.values, [0.0, 1.0])
    assert np.allclose(d.weights, [0.5, 0.5])


# -- circle long arcs --------------------------------------------------------------


def circle_sign() -> StepFunction:
    return StepFunction(CIRCLE, [0.0, 0.5, 1.0], [-1.0, 1.0])


def test_circle_whole_periods_average():
    assert circle_sign().average((0.0, 3.0)) == 0.0


def test_circle_long_arc_against_unrolled():
    f = circle_sign()
    arc = (0.3, 4.85)
    unrolled = f.restrict(arc)
    assert f.average(arc) == pytest.approx(unrolled.average(arc), abs=1e-12)
    assert f.central_moment(arc, 2.0) == pytest.approx(unrolled.central_moment(arc, 2.0), abs=1e-12)
    assert tv_distance(f.distribution(arc), unrolled.distribution(arc)) < 1e-12


def test_circle_negative_coordinates():
    f = circle_sign()
    assert f.average((-1.0, 1.0)) == 0.0
    assert f.evaluate(-0.25) == f.evaluate(0.75)


def test_interval_query_outside_domain_rejected():
    with pytest.raises(InputError):
        sign_step().average((-2.0, 0.0))
    with pytest.raises(InputError):
        IntervalQuery(1.0, 0.0)


# -- monotone composition --------------------------------------------------------------


def test_identity_map_leaves_function():
    f = sign_step()
    g = compose_monotone(f, MonotoneMap.identity())
    assert np.array_equal(g.values, f.values)


def test_truncation_example():
    g = compose_monotone(sign_step(), MonotoneMap.truncation(0.0))
    assert np.array_equal(g.values, [-1.0, 0.0])


def test_monotone_map_rejects_decreasing():
    with pytest.raises(InputError):
        MonotoneMap([0.0, 1.0], [1.0, 0.0])


def test_monotone_map_lipschitz():
    g = MonotoneMap([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
    assert g.lipschitz == 1.5
    assert float(g(3.0)) == pytest.approx(3.5)  # continues with the last slope
    assert float(g(-1.0)) == pytest.approx(-0.5)


# -- monotone rearrangement ----------------------------------------------------------


def test_rearrangement_fixes_sorted_function():
    f = sign_step()
    r = monotone_rearrangement(f)
    assert np.array_equal(r.values, f.values)
    assert np.array_equal(r.breakpoints, f.breakpoints)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rearrangement_preserves_distribution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
    f = StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))
    r = monotone_rearrangement(f)
    assert np.all(np.diff(r.values) > 0)
    assert tv_distance(r.distribution((0.0, 1.0)), f.distribution((0.0, 1.0))) < 1e-12


def test_rearrangement_rejects_circle():
    with pytest.raises(InputError):
        monotone_rearrangement(circle_sign())


# -- serialization -------------------------------------------------------------------


def test_json_round_trip():
    for f in (sign_step(), circle_sign()):
        g = StepFunction.from_dict(f.to_dict())
        assert np.array_equal(g.breakpoints, f.breakpoints)
        assert np.array_equal(g.values, f.values)
        assert g.is_circle == f.is_circle


def test_validation_errors():
    with pytest.raises(InputError):
        StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 0.4, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        StepFunction(Interval(0.0, 1.0), [0.0, 0.5], [np.inf])
    with pytest.raises(InputError):
        StepFunction(CIRCLE, [0.0, 0.5, 1.5], [1.0, 2.0])
    with pytest.raises(InputError):
        Interval(1.0, 1.0)
