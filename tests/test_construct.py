"""Construction DAG: distribution preservation, queries, materialization."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanosc.construct import (
    constant,
    expr_from_dict,
    glue,
    homogenize,
    leaf,
    materialize,
    periodize,
    query,
    query_batch,
    required_pieces,
)
from meanosc.distributions import dist_mix, tv_distance
from meanosc.errors import BudgetError, InputError
from meanosc.stepfun import Interval, StepFunction


def sign_step() -> StepFunction:
    return StepFunction(Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])


def random_leaf(rng) -> StepFunction:
    n = int(rng.integers(1, 6))
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
    return StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))


# -- homogenization -------------------------------------------------------------


def test_hom_of_constant_is_constant():
    h = homogenize(constant(3.0), 0.5, 4)
    assert materialize(h).piece_count == 1
    assert query(h, (-0.4, 0.2)).distribution.is_delta


def test_hom_preserves_distribution_exactly():
    h = homogenize(leaf(sign_step()), 0.9, 20)
    assert tv_distance(h.distribution(), sign_step().distribution((-1.0, 1.0))) == 0.0
    full = query(h, (-0.5, 0.5)).distribution
    assert tv_distance(full, h.distribution()) == 0.0


def test_hom_neighbor_length_ratio():
    lam, levels = 0.7, 6
    h = homogenize(leaf(sign_step()), lam, levels)
    bounds = [h._cell_bounds(1, k) for k in range(1, levels + 2)]
    lengths = [b - a for a, b in bounds]
    for k in range(levels - 1):
        ratio = lengths[k + 1] / lengths[k]
        assert lam - 1e-12 <= ratio <= 1.0 / lam + 1e-12
    # the truncation junction degrades to lam/(1-lam)
    last_ratio = lengths[-1] / lengths[-2]
    assert last_ratio == pytest.approx(lam / (1.0 - lam), rel=1e-9)


def test_hom_cell_table_matches_cell_bounds():
    # the searchsorted table holds exactly the bounds _cell_bounds gives,
    # and nodes with one schedule share one read-only table
    for lam, levels in ((0.7, 6), (0.9, 40), (0.999, 700)):
        h = homogenize(leaf(sign_step()), lam, levels)
        table = h._bounds
        assert table.size == 2 * levels + 3 and not table.flags.writeable
        for k in range(1, levels + 2):
            lo, hi = h._cell_bounds(1, k)
            assert (table[levels + k], table[levels + k + 1]) == (lo, hi)
            lo, hi = h._cell_bounds(-1, k)
            assert (table[levels + 1 - k], table[levels + 2 - k]) == (lo, hi)
        assert homogenize(constant(1.0), lam, levels)._bounds is table


def test_hom_parameter_validation():
    with pytest.raises(InputError):
        homogenize(constant(0.0), 1.5)
    with pytest.raises(InputError):
        homogenize(constant(0.0), 0.5, 0)


# -- gluing ----------------------------------------------------------------------


def test_glue_of_constants_distribution():
    g = glue(constant(2.0), constant(5.0), 0.25, 0.5, 2)
    d = g.distribution()
    assert np.allclose(d.values, [2.0, 5.0])
    assert np.allclose(d.weights, [0.75, 0.25])


def test_glue_same_child_keeps_distribution():
    e = leaf(sign_step())
    g = glue(e, e, 0.5, 0.8, 5)
    assert tv_distance(g.distribution(), e.distribution()) == 0.0


def test_glue_orientation_right_child_first():
    # the right child's content occupies [0, alpha)
    g = glue(constant(2.0), constant(5.0), 0.25, 0.5, 2)
    left_arc = query(g, (0.0, 0.25)).distribution
    assert left_arc.is_delta and left_arc.values[0] == 5.0
    right_arc = query(g, (0.25, 1.0)).distribution
    assert right_arc.is_delta and right_arc.values[0] == 2.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_glue_matches_mixture_oracle(seed):
    rng = np.random.default_rng(seed)
    e0, e1 = leaf(random_leaf(rng)), leaf(random_leaf(rng))
    alpha = float(rng.uniform(0.05, 0.95))
    g = glue(e0, e1, alpha, 0.8, 6)
    oracle = dist_mix(e0.distribution(), e1.distribution(), alpha)
    assert tv_distance(g.distribution(), oracle) < 1e-12


def test_glue_alpha_validation():
    with pytest.raises(InputError):
        glue(constant(0.0), constant(1.0), 1.0)


# -- queries --------------------------------------------------------------------


def test_periodize_whole_periods_average():
    p = periodize(homogenize(leaf(sign_step()), 0.5, 3))
    for k in (1, 2, 5):
        res = query(p, (0.0, float(k)), functional=("barycenter", {}))
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.partial_end_weight == 0.0


def test_leaf_query_matches_stepfun():
    rng = np.random.default_rng(7)
    f = random_leaf(rng)
    e = leaf(f)
    for _ in range(50):
        a = float(rng.uniform(0.0, 0.9))
        b = float(rng.uniform(a + 0.01, 1.0))
        assert tv_distance(query(e, (a, b)).distribution, f.distribution((a, b))) == 0.0


def test_glue_constant_moment_formula():
    a, b, alpha = -2.0, 3.0, 0.25
    g = glue(constant(a), constant(b), alpha, 0.5, 3)
    res = query(g, (0.0, 1.0), functional=("central_p_moment", {"p": 1.0}))
    assert res.value == pytest.approx(2 * alpha * (1 - alpha) * abs(a - b), abs=1e-12)


def test_query_functional_callable():
    g = glue(constant(0.0), constant(1.0), 0.5, 0.5, 2)
    res = query(g, (0.0, 1.0), functional=lambda d: d.central_moment(2.0))
    assert res.value == pytest.approx(0.25, abs=1e-15)


def test_query_outside_interval_carrier_rejected():
    h = homogenize(leaf(sign_step()), 0.5, 3)
    with pytest.raises(InputError):
        query(h, (-1.0, 1.0))


def test_long_query_tv_bound():
    p = periodize(homogenize(leaf(sign_step()), 0.6, 8))
    node = p.distribution()
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(1, 12))
        r = float(rng.uniform(0.0, 1.0))
        start = float(rng.uniform(-3.0, 3.0))
        res = query(p, (start, start + k + r))
        assert res.partial_end_weight <= 2.0 / (k + r) + 1e-12
        assert tv_distance(res.distribution, node) <= 2.0 * r / (k + r) + 1e-12


def test_query_cost_linear_in_depth():
    rng = np.random.default_rng(5)
    f = random_leaf(rng)
    visits = []
    expr = leaf(f)
    for depth in range(1, 25):
        expr = glue(expr, constant(float(depth)), 0.3, 0.9, 10)
        if depth in (6, 12, 24):
            visits.append(query(expr, (0.123, 0.887)).nodes_visited)
    assert visits[1] <= 2.5 * visits[0]
    assert visits[2] <= 2.5 * visits[1]


# -- materialization ----------------------------------------------------------------


def test_materialize_leaf_identity():
    f = sign_step()
    m = materialize(leaf(f))
    assert np.array_equal(m.breakpoints, f.breakpoints)
    assert np.array_equal(m.values, f.values)


def test_materialize_hom_piece_count():
    h = homogenize(leaf(sign_step()), 0.5, 3)
    assert required_pieces(h) == 16  # 2*(3+1) copies of a 2-piece function
    assert materialize(h).piece_count == 16


def test_materialize_glue_constants_collapse():
    g = glue(constant(0.0), constant(1.0), 0.5, 0.5, 2)
    assert required_pieces(g) == 2
    m = materialize(g)
    assert m.piece_count == 2
    assert m.is_circle


def test_materialize_budget_error_names_count():
    h = homogenize(leaf(sign_step()), 0.5, 3)
    with pytest.raises(BudgetError) as err:
        materialize(h, max_pieces=10)
    assert err.value.required == 16


def test_query_materialize_agreement():
    rng = np.random.default_rng(11)
    e0, e1 = leaf(random_leaf(rng)), leaf(random_leaf(rng))
    # every caller of the copy map: glue arms, a periodized hom, and circle
    # content inside hom copies (the glue-of-glues shape compile_to_circle emits)
    cases = {
        "glue": glue(e0, e1, 0.35, 0.6, 5),
        "periodized hom": periodize(homogenize(e0, 0.7, 3)),
        "glue of glues": glue(
            glue(constant(0.0), constant(2.0), 0.3, 0.6, 3),
            glue(constant(-1.0), e1, 0.55, 0.6, 3),
            0.4,
            0.7,
            2,
        ),
    }
    for name, g in cases.items():
        m = materialize(g)
        for k in range(80):
            a = float(rng.uniform(-2.0, 2.0))
            # the last 20 arcs span one to six periods
            b = a + float(rng.uniform(1e-6, 3.0) if k < 60 else rng.uniform(1.0, 6.0))
            qd = query(g, (a, b)).distribution
            md = m.distribution((a, b))
            assert tv_distance(qd, md) < 1e-10, (name, a, b)
            assert qd.central_moment(1.0) == pytest.approx(md.central_moment(1.0), abs=1e-10), (name, a, b)


def test_nested_hom_matches_materialized():
    rng = np.random.default_rng(13)
    inner = homogenize(leaf(random_leaf(rng)), 0.5, 2)
    outer = homogenize(inner, 0.6, 2)
    m = materialize(outer)
    for _ in range(60):
        a = float(rng.uniform(-0.5, 0.49))
        b = float(rng.uniform(a + 1e-6, 0.5))
        assert tv_distance(query(outer, (a, b)).distribution, m.distribution((a, b))) < 1e-10


# -- node-level invariants on random instances ------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_node_distribution_preservation(seed):
    rng = np.random.default_rng(seed)
    e0, e1 = leaf(random_leaf(rng)), leaf(random_leaf(rng))
    alpha = float(rng.uniform(0.1, 0.9))
    lam = float(rng.uniform(0.5, 0.95))
    g = glue(homogenize(e0, lam, 4), e1, alpha, lam, 4)
    # cached node distribution equals the full-carrier query distribution
    assert tv_distance(g.distribution(), query(g, (0.0, 1.0)).distribution) < 1e-12
    mixture = dist_mix(e0.distribution(), e1.distribution(), alpha)
    assert tv_distance(g.distribution(), mixture) < 1e-12


# -- serialization ------------------------------------------------------------------


def test_expression_json_round_trip():
    g = glue(homogenize(leaf(sign_step()), 0.7, 4), constant(2.0), 0.3, 0.8, 5)
    d = g.to_dict()
    g2 = expr_from_dict(d)
    assert g2.to_dict() == d
    assert tv_distance(g.distribution(), g2.distribution()) == 0.0
    j = (0.137, 1.92)
    assert tv_distance(query(g, j).distribution, query(g2, j).distribution) == 0.0


def test_leaf_rejects_circle_function():
    from meanosc.stepfun import CIRCLE

    circ = StepFunction(CIRCLE, [0.0, 0.5, 1.0], [-1.0, 1.0])
    with pytest.raises(InputError):
        leaf(circ)


def test_periodize_idempotent_on_circle():
    g = glue(constant(0.0), constant(1.0), 0.5, 0.5, 2)
    assert periodize(g) is g


def test_cycle_guard_raises_internal_error():
    from meanosc.errors import InternalError

    h = homogenize(leaf(sign_step()), 0.61, 3)
    h.child = h  # forge a malformed self-referential DAG
    with pytest.raises(InternalError):
        query(h, (-0.0923, 0.0617))


def _batch_cases(rng):
    e0, e1 = leaf(random_leaf(rng)), leaf(random_leaf(rng))
    return {
        # the three expressions of test_query_materialize_agreement
        "glue": glue(e0, e1, 0.35, 0.6, 5),
        "periodized hom": periodize(homogenize(e0, 0.7, 3)),
        "glue of glues": glue(
            glue(constant(0.0), constant(2.0), 0.3, 0.6, 3),
            glue(constant(-1.0), e1, 0.55, 0.6, 3),
            0.4,
            0.7,
            2,
        ),
        # the criterion-5 shape, and an interval carrier for carrier-end clipping
        "criterion 5": periodize(glue(homogenize(e0, 0.9), e1, 0.45, 0.9)),
        "nested hom": homogenize(homogenize(e1, 0.5, 2), 0.6, 2),
    }


def _batch_arcs(rng, e):
    if not e.is_circle:
        a = rng.uniform(-0.5, 0.45, 12)
        b = a + rng.uniform(1e-6, 0.5, 12)
        cells = np.array([e._ck(k) for k in (1, 2, 3)])
        ls = np.concatenate((a, [-0.5, -0.5, 0.1, -0.3], cells - 1e-4, cells[:1]))
        rs = np.concatenate((np.minimum(b, 0.5), [0.5, 0.2, 0.5, 0.5], cells - 2e-5, cells[1:2]))
        return ls, rs
    a = rng.uniform(-3.0, 3.0, 24)
    spans = np.concatenate((
        rng.uniform(1e-3, 0.9, 6),  # inside one period or across the wrap
        rng.uniform(1.0, 6.0, 6),  # one to six periods
        rng.uniform(1e-9, 1e-6, 6),  # inside one cell
        np.arange(1.0, 7.0),  # whole periods
    ))
    ints = np.floor(a[:4])
    # arcs ending on period ends and on the glue junction
    ls = np.concatenate((a, ints, ints + 0.25, [0.35, 0.1]))
    rs = np.concatenate((a + spans, ints + 1.0, ints + 2.0, [1.0, 0.35]))
    return ls, rs


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_batched_query_matches_batches_of_one(seed):
    rng = np.random.default_rng(seed)
    for name, e in _batch_cases(rng).items():
        ls, rs = _batch_arcs(rng, e)
        batch = query_batch(e, ls, rs)
        assert batch.masses.shape == (ls.size, e.atom_values.size)
        for i, (l, r) in enumerate(zip(ls.tolist(), rs.tolist())):
            assert batch.masses[i].tobytes() == query_batch(e, [l], [r]).masses[0].tobytes(), (name, l, r)
            many, one = batch.result(i), query(e, (l, r))
            for field in ("depth", "nodes_visited", "partial_end_weight"):
                assert getattr(many, field) == getattr(one, field), (name, l, r, field)
            assert many.distribution.values.tobytes() == one.distribution.values.tobytes(), (name, l, r)
            assert many.distribution.weights.tobytes() == one.distribution.weights.tobytes(), (name, l, r)


def test_batched_query_of_a_long_two_valued_leaf_stays_small():
    # a 0/1 leaf of 20000 pieces has two atoms, so its batches are long;
    # the leaf's (ranges x pieces) overlaps must still come in small slices
    pieces = 20_000
    f = StepFunction(Interval(0.0, 1.0), np.linspace(0.0, 1.0, pieces + 1), np.arange(pieces) % 2.0)
    e = homogenize(leaf(f), 0.6, 6)
    rng = np.random.default_rng(0)
    ls = rng.uniform(-0.5, 0.45, 300)
    rs = np.minimum(ls + rng.uniform(1e-6, 0.3, 300), 0.5)
    tracemalloc.start()
    try:
        batch = query_batch(e, ls, rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unsliced, the overlaps of the 300 to 600 leaf ranges take 48 to 96 MB
    assert peak < 8 * 2**20
    assert np.allclose(batch.masses.sum(axis=1), rs - ls, rtol=1e-12, atol=0.0)
    for i in range(0, 300, 15):
        one = query_batch(e, ls[i : i + 1], rs[i : i + 1])
        assert batch.masses[i].tobytes() == one.masses[0].tobytes()
        assert batch.result(i).nodes_visited == one.result(0).nodes_visited
