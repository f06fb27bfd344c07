"""Finite atomic distributions: exact functionals, mixing, total variation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanosc.distributions import DiscreteDistribution, dist_mix, tv_distance
from meanosc.errors import InputError


def two_point() -> DiscreteDistribution:
    return DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])


def test_two_point_second_moment():
    assert two_point().barycenter() == 0.0
    assert two_point().central_moment(2.0) == 1.0
    assert two_point().exp_integral(1.0) == pytest.approx(math.cosh(1.0), abs=1e-15)


def test_ap_form_quarter_example():
    d = DiscreteDistribution([2.0, 0.5], [0.5, 0.5])
    assert d.ap_form(2.0) == pytest.approx(25.0 / 16.0, abs=1e-15)
    assert d.power_mean(1.0) == pytest.approx(1.25, abs=1e-15)


def test_delta_exp_integral():
    c = 1.7
    d = DiscreteDistribution.delta(0.3)
    assert d.exp_integral(c) == pytest.approx(math.exp(c * 0.3), abs=1e-15)


def test_tail_mass():
    d = two_point()
    assert d.tail_mass(0.5) == 1.0
    assert d.tail_mass(1.0) == 1.0
    assert d.tail_mass(1.0001) == 0.0


def test_power_mean_and_geometric_form():
    d = DiscreteDistribution([1.0, 4.0], [0.5, 0.5])
    assert d.power_mean(2.0) == pytest.approx(math.sqrt(8.5), abs=1e-15)
    assert d.geometric_form() == pytest.approx(2.5 * math.exp(-0.5 * math.log(4.0)), abs=1e-15)


def test_positive_functionals_reject_nonpositive_atoms():
    d = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    for call in (lambda: d.ap_form(2.0), lambda: d.power_mean(2.0), lambda: d.geometric_form()):
        with pytest.raises(InputError):
            call()


def test_exp_integral_overflow_is_inf():
    d = DiscreteDistribution([1000.0], [1.0])
    assert d.exp_integral(10.0) == math.inf


# -- mixing --------------------------------------------------------------------


def test_mix_alpha_zero_returns_first():
    d0, d1 = two_point(), DiscreteDistribution.delta(3.0)
    assert dist_mix(d0, d1, 0.0) is d0


def test_mix_quarter_example():
    m = dist_mix(DiscreteDistribution.delta(0.0), DiscreteDistribution.delta(1.0), 0.25)
    assert np.allclose(m.values, [0.0, 1.0])
    assert np.allclose(m.weights, [0.75, 0.25])


def test_mix_rejects_weight_outside_unit():
    with pytest.raises(InputError):
        dist_mix(two_point(), two_point(), 1.5)


def test_tv_distance_identity_and_symmetry():
    d = two_point()
    assert tv_distance(d, d) == 0.0
    e = DiscreteDistribution([0.0, 1.0], [0.25, 0.75])
    assert tv_distance(d, e) == tv_distance(e, d)
    # half the sum of |0.5-0| + |0-0.25| + |0.5-0.75| over the atom union
    assert tv_distance(d, e) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mix_grouping_consistency(seed):
    rng = np.random.default_rng(seed)

    def rand_dist():
        n = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, n)
        return DiscreteDistribution(rng.normal(size=n), w / w.sum())

    a, b, c = rand_dist(), rand_dist(), rand_dist()
    s, t = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
    # (a mixed into b) mixed into c, versus a mixed into (b mixed into c),
    # with weights arranged to give the same final convex combination
    left = dist_mix(dist_mix(a, b, s), c, t)
    wa, wb, wc = (1 - s) * (1 - t), s * (1 - t), t
    right = dist_mix(a, dist_mix(b, c, wc / (wb + wc)), wb + wc)
    assert tv_distance(left, right) < 1e-12


def test_atom_merging():
    # atoms are the same exactly when their values are equal: equal values
    # merge, and values 1e-13 apart stay two atoms at any scale
    d = DiscreteDistribution([1.0, 1.0 + 1e-13, 2.0, 1.0], [0.25, 0.25, 0.25, 0.25])
    assert d.values.tolist() == [1.0, 1.0 + 1e-13, 2.0]
    assert d.weights.tolist() == [0.5, 0.25, 0.25]
    with pytest.raises(InputError):
        DiscreteDistribution([[0.0, 1.0], [0.0, 2.0]], [0.5, 0.5])


def test_tv_distance_matches_only_equal_atoms():
    one, near = DiscreteDistribution.delta(1.0), DiscreteDistribution.delta(1.0 + 1e-13)
    assert tv_distance(one, near) == 1.0
    assert tv_distance(one, DiscreteDistribution.delta(1.0)) == 0.0
    d = DiscreteDistribution([1.0, 1.0 + 1e-13], [0.5, 0.5])
    assert tv_distance(d, one) == 0.5


def test_weights_validation():
    with pytest.raises(InputError):
        DiscreteDistribution([0.0, 1.0], [0.5, 0.6])
    with pytest.raises(InputError):
        DiscreteDistribution([0.0], [-1.0])
    with pytest.raises(InputError):
        DiscreteDistribution([], [])


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    d = DiscreteDistribution([0.5, -1.0], [0.25, 0.75])
    e = DiscreteDistribution.from_dict(d.to_dict())
    assert tv_distance(d, e) == 0.0
