"""Martingale trees: membership validation, compilation, staircases."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanosc.distributions import DiscreteDistribution, dist_mix, tv_distance
from meanosc.errors import InputError
from meanosc.martingales import (
    ApDomain,
    MartNode,
    MartingaleTree,
    MomentDomain,
    _node_margin,
    compile_to_circle,
    log_staircase,
    mix_children,
    power_staircase,
    validate_membership,
)
from meanosc.search import exp_integral


def two_leaf_tree() -> MartingaleTree:
    root = MartNode(
        DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]),
        (
            (0.5, MartNode(DiscreteDistribution.delta(-1.0))),
            (0.5, MartNode(DiscreteDistribution.delta(1.0))),
        ),
    )
    return MartingaleTree(root)


# -- structural validation ---------------------------------------------------------


def test_structure_accepts_valid_tree():
    two_leaf_tree().check_structure()


def test_structure_rejects_bad_probabilities():
    root = MartNode(
        DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]),
        (
            (0.4, MartNode(DiscreteDistribution.delta(-1.0))),
            (0.5, MartNode(DiscreteDistribution.delta(1.0))),
        ),
    )
    with pytest.raises(InputError):
        MartingaleTree(root).check_structure()


def test_structure_rejects_broken_martingale_property():
    root = MartNode(
        DiscreteDistribution([-1.0, 1.0], [0.4, 0.6]),
        (
            (0.5, MartNode(DiscreteDistribution.delta(-1.0))),
            (0.5, MartNode(DiscreteDistribution.delta(1.0))),
        ),
    )
    with pytest.raises(InputError):
        MartingaleTree(root).check_structure()


# -- membership validation -----------------------------------------------------------


def test_two_leaf_membership_threshold():
    tree = two_leaf_tree()
    # segment maximum of the second moment is 4a(1-a) = 1 at a = 1/2
    assert not validate_membership(tree, MomentDomain(2.0, 0.95)).passed
    assert not validate_membership(tree, MomentDomain(2.0, 1.0)).passed
    assert validate_membership(tree, MomentDomain(2.0, 1.05)).passed


def test_two_leaf_membership_margin_value():
    report = validate_membership(two_leaf_tree(), MomentDomain(2.0, 1.05))
    assert report.worst_margin == pytest.approx(1.0 - 1.05**2, abs=1e-9)


def test_membership_margin_against_grid_oracle():
    tree = two_leaf_tree()
    dom = MomentDomain(1.0, 1.2)
    report = validate_membership(tree, dom)
    d0 = tree.root.children[0][1].value
    d1 = tree.root.children[1][1].value
    oracle = max(
        dist_mix(d0, d1, t).central_moment(1.0) - 1.2
        for t in np.linspace(0.0, 1.0, 2001)
    )
    assert report.worst_margin == pytest.approx(oracle, abs=1e-6)


def test_mean_deviation_peak_between_dyadic_mixtures_fails():
    # the root's edge from δ_1.5 to the node {-4.8, 1.4} is the quadratic
    # 6.3s - 3.2s² in the node's weight s past the kink at s = 1/32; its
    # vertex s = 63/64 lies between dyadic samples and reaches 3.10078125
    leaf = lambda v: MartNode(DiscreteDistribution.delta(v))
    node = MartNode(DiscreteDistribution([-4.8, 1.4], [0.5, 0.5]), ((0.5, leaf(-4.8)), (0.5, leaf(1.4))))
    root = MartNode(dist_mix(DiscreteDistribution.delta(1.5), node.value, 0.5), ((0.5, leaf(1.5)), (0.5, node)))
    report = validate_membership(MartingaleTree(root), MomentDomain(1.0, 3.1005))
    assert not report.passed and report.offending_path == []
    assert report.worst_margin == pytest.approx(3.10078125 - 3.1005, rel=1e-12)


def test_moment_domain_rejects_orders_without_closed_form():
    for p in (0.5, 1.5, 3.0):
        with pytest.raises(InputError):
            MomentDomain(p, 1.0)


_ATOMS = st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.05, 1.0)), min_size=1, max_size=6)


def _domain_dist(dom, atoms) -> DiscreteDistribution:
    """The distribution of ``atoms``: moment domains see them in (-5, 5), weight domains positive in (0.1, 10)."""
    values, weights = np.array(atoms).T
    return DiscreteDistribution(values - (5.0 if isinstance(dom, MomentDomain) else 0.0), weights / weights.sum())


def _mixture_functionals(dom, dists, w: np.ndarray):
    """``(raw, offset, scale)``: the raw functional of the mixture of ``dists`` by each row of weights ``w``.

    The domain's functional is ``raw - offset``; ``scale`` is a rounding
    floor, as a moment is computed no closer than rounding at the atoms'
    scale.
    """
    x = np.concatenate([d.values for d in dists])
    mix = np.hstack([w[:, [k]] * d.weights for k, d in enumerate(dists)])
    mean = mix @ x
    if isinstance(dom, MomentDomain):
        return (mix * np.abs(x - mean[:, None]) ** dom.p).sum(axis=1), dom.eps**dom.p, np.abs(x).max() ** dom.p
    return mean * (mix @ x ** (-1.0 / (dom.p - 1.0))) ** (dom.p - 1.0), dom.bound, 1.0


@pytest.mark.parametrize(
    "dom",
    [MomentDomain(1.0, 1.0), MomentDomain(2.0, 1.0), ApDomain(1.5, 2.0), ApDomain(2.0, 2.0), ApDomain(3.0, 2.0)],
    ids=["moment_1", "moment_2", "ap_1.5", "ap_2", "ap_3"],
)
@settings(max_examples=100, deadline=None)
@given(_ATOMS, _ATOMS)
def test_segment_max_is_at_least_a_dense_grid(dom, atoms0, atoms1):
    d0, d1 = (_domain_dist(dom, atoms) for atoms in (atoms0, atoms1))
    ts = np.linspace(0.0, 1.0, 2001)[:, None]
    raw, offset, scale = _mixture_functionals(dom, [d0, d1], np.hstack((1.0 - ts, ts)))
    grid = float(raw.max())
    assert dom.segment_max(d0, d1) + offset >= grid - 1e-15 * max(grid, scale)


# resolution of the barycentric grid by child count: at least 16, and at most about 20k weight vectors
_HULL_RESOLUTION = {3: 96, 4: 40, 5: 24, 6: 16}


def _barycentric_weights(m: int, resolution: int) -> np.ndarray:
    """Every weight vector of ``m`` entries ``k/resolution``, ``k >= 0``, summing to 1: stars and bars."""
    bars = np.array(list(itertools.combinations(range(resolution + m - 1), m - 1)))
    ends = np.hstack((np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), resolution + m - 1)))
    return (np.diff(ends, axis=1) - 1) / resolution


@pytest.mark.parametrize(
    "dom",
    [MomentDomain(1.0, 1.0), MomentDomain(2.0, 1.0), ApDomain(1.5, 2.0), ApDomain(2.0, 2.0), ApDomain(3.0, 2.0)],
    ids=["moment_1", "moment_2", "ap_1.5", "ap_2", "ap_3"],
)
@settings(max_examples=40, deadline=None)
@given(st.lists(_ATOMS, min_size=3, max_size=6))
def test_node_margin_is_at_least_a_dense_hull_grid(dom, children):
    # the edge principle: the largest functional over the hull of 3-6
    # children lies on an edge, where segment_max finds it, so no point of
    # a dense barycentric grid beats the margin by more than rounding
    w = _barycentric_weights(len(children), _HULL_RESOLUTION[len(children)])
    values = [_domain_dist(dom, atoms) for atoms in children]
    raw, offset, scale = _mixture_functionals(dom, values, w)
    # neither the node's own value nor the transition probabilities play a part in its margin
    node = MartNode(values[0], [(1.0 / len(values), MartNode(v)) for v in values])
    grid = float(raw.max())
    assert _node_margin(dom, node) + offset >= grid - 1e-15 * max(abs(grid), scale)


def test_non_delta_leaf_fails():
    d = DiscreteDistribution([-0.5, 0.5], [0.5, 0.5])
    root = MartNode(d, ((1.0, MartNode(d)),))
    report = validate_membership(MartingaleTree(root), MomentDomain(2.0, 1.5))
    assert not report.passed
    assert report.offending_path == [0]


def test_two_delta_weight_martingale_validation():
    # the A_2 form of the mixtures of deltas at 0.5 and 2.0 peaks at 1.25² = 1.5625 at t = 1/2
    leaves = [MartNode(DiscreteDistribution.delta(u)) for u in (0.5, 2.0)]
    root = MartNode(DiscreteDistribution([0.5, 2.0], [0.5, 0.5]), ((0.5, leaves[0]), (0.5, leaves[1])))
    tree = MartingaleTree(root)
    assert validate_membership(tree, ApDomain(2.0, 2.0)).passed
    assert not validate_membership(tree, ApDomain(2.0, 1.05)).passed


def test_tuple_node_value_rejected():
    with pytest.raises(InputError):
        MartNode((0.0, 1.0))


# -- compile ----------------------------------------------------------------------------


def test_compile_two_leaf_distribution():
    expr = compile_to_circle(two_leaf_tree(), (0.9, 20))
    assert tv_distance(expr.distribution(), two_leaf_tree().root.value) == 0.0


def test_compile_three_child_fold():
    leaves = [MartNode(DiscreteDistribution.delta(v)) for v in (0.0, 1.0, 2.0)]
    probs = [0.25, 0.25, 0.5]
    root_dist = mix_children([n.value for n in leaves], probs)
    tree = MartingaleTree(MartNode(root_dist, tuple(zip(probs, leaves))))
    expr = compile_to_circle(tree, (0.8, 10))
    d = expr.distribution()
    assert np.allclose(d.values, [0.0, 1.0, 2.0])
    assert np.allclose(d.weights, [0.25, 0.25, 0.5])
    assert tv_distance(d, root_dist) == 0.0


def test_compile_rejects_non_delta_leaf():
    root = MartNode(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]), ())
    with pytest.raises(InputError):
        compile_to_circle(MartingaleTree(root))


def test_compile_staircase_identity_and_exp_integral():
    f, M = log_staircase(1.5, 5)
    expr = compile_to_circle(M, (0.9, 30))
    assert tv_distance(expr.distribution(), M.root.value) == 0.0
    d = M.root.value
    atom_sum = float(np.dot(d.weights, np.exp(d.values)))
    assert abs(exp_integral(expr, None, 1.0) - atom_sum) < 1e-12


def test_membership_pass_controls_compiled_oscillation():
    # a strict membership margin bounds the compiled function's interval
    # moments on a dense grid once the homogenization ratio is close to 1
    eps = 1.2
    tree = two_leaf_tree()
    report = validate_membership(tree, MomentDomain(2.0, eps))
    assert report.passed and report.worst_margin < -0.4
    expr = compile_to_circle(tree, (0.99, 690))
    from meanosc.construct import materialize

    flat = materialize(expr, max_pieces=5000)
    xs = np.linspace(0.0, 2.0, 70)
    worst = max(
        flat.central_moment((a, b), 2.0)
        for i, a in enumerate(xs)
        for b in xs[i + 1 :]
    )
    assert worst < eps**2 + 1e-9


# -- staircase factories ------------------------------------------------------------------


def test_log_staircase_depth_one_values():
    f, M = log_staircase(math.e, 1)
    assert f.values[1] == pytest.approx(-0.418023, abs=1e-6)
    assert f.values[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(f.lengths, [1.0 / math.e, 1.0 - 1.0 / math.e])
    assert np.allclose(M.root.value.weights, sorted([1.0 - 1.0 / math.e, 1.0 / math.e]))


def test_log_staircase_martingale_property_exact():
    _, M = log_staircase(1.3, 12)
    M.check_structure()  # raises unless every node mixes its children exactly
    for _, node in M.walk():
        if not node.is_leaf:
            mixed = mix_children([c.value for _, c in node.children], [w for w, _ in node.children])
            assert tv_distance(node.value, mixed) == 0.0


def test_log_staircase_membership_lemma_parameters():
    delta = 0.3
    _, M = log_staircase(math.exp(delta / 5.0), 50)
    report = validate_membership(M, MomentDomain(1.0, 2.0 / math.e + delta))
    assert report.passed


def test_log_staircase_rejects_bad_lambda():
    with pytest.raises(InputError):
        log_staircase(1.0, 5)


def test_staircase_distribution_matches_root():
    f, M = log_staircase(1.4, 8)
    assert tv_distance(f.distribution((0.0, 1.0)), M.root.value) < 1e-12


# -- power staircase ------------------------------------------------------------------------


def test_power_staircase_alpha_zero_is_unit_weight():
    f, M = power_staircase(0.0, 2.0, 1.3, 10)
    assert np.allclose(f.values, 1.0)
    report = validate_membership(M, ApDomain(2.0, 1.5))
    assert report.passed


def test_power_staircase_martingale_property():
    _, M = power_staircase(0.5, 2.0, 1.3, 15)
    for _, node in M.walk():
        if not node.is_leaf:
            mixed = mix_children([c.value for _, c in node.children], [w for w, _ in node.children])
            assert tv_distance(node.value, mixed) == 0.0


def test_power_staircase_integrability_validation():
    with pytest.raises(InputError):
        power_staircase(-1.5, 2.0, 1.3, 5)
    with pytest.raises(InputError):
        power_staircase(1.5, 2.0, 1.3, 5)  # alpha >= p - 1


def test_power_staircase_ap_bound_enforcement():
    f, M = power_staircase(0.5, 2.0, 1.05, 50, ap_bound=1.6)
    assert f.values.min() > 0
    with pytest.raises(InputError):
        power_staircase(0.5, 2.0, 1.05, 50, ap_bound=1.01)


# -- serialization ---------------------------------------------------------------------------


def test_martingale_json_round_trip():
    _, M = log_staircase(1.5, 4)
    M2 = MartingaleTree.from_dict(M.to_dict())
    assert M2.to_dict() == M.to_dict()
    M2.check_structure()
    point = {"kind": "point", "root": {"value": [0.0, 1.0], "children": []}}
    with pytest.raises(InputError):
        MartingaleTree.from_dict(point)


def test_validation_report_serialization():
    report = validate_membership(two_leaf_tree(), MomentDomain(2.0, 1.05))
    d = report.to_dict()
    assert d["pass"] is True
    assert "root" in d["margins"]
