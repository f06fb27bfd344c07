"""Construction DAG: distribution preservation, queries, materialization."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanosc import construct
from meanosc.construct import (
    ConstExpr,
    LeafExpr,
    constant,
    expr_from_dict,
    glue,
    homogenize,
    leaf,
    materialize,
    periodize,
    query,
    query_batch,
    query_batches,
    required_pieces,
)
from meanosc.distributions import dist_mix, tv_distance
from meanosc.errors import BudgetError, InputError
from meanosc.martingales import compile_to_circle, log_staircase
from meanosc.search import _layout
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


def test_glue_of_near_atom_chains_keeps_every_atom():
    # two glue chains of constants whose atoms lie 1.1e-12 apart, offset by
    # half a step: the gluing keeps all 24 atoms and mixes them exactly
    def chain(values):
        e = constant(values[0])
        for v in values[1:]:
            e = glue(e, constant(v), 0.5, 0.5, 2)
        return e

    a = chain([k * 1.1e-12 for k in range(12)])
    b = chain([(k + 0.5) * 1.1e-12 for k in range(12)])
    g = glue(a, b, 0.25, 0.5, 2)
    assert g.atom_values.size == 24
    assert tv_distance(g.distribution(), dist_mix(a.distribution(), b.distribution(), 0.25)) == 0.0
    assert tv_distance(query(g, (0.0, 1.0)).distribution, g.distribution()) == 0.0


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


def test_piece_count_takes_one_step_per_distinct_node(monkeypatch):
    # x_{k+1} = glue(x_k, x_k) shares its children, so a plain recursion
    # takes 2^k steps; the first value 0 and last value -1 never merge, so
    # each level holds 2·2·(levels + 1) = 12 copies of the one below
    def chain(depth):
        x = leaf(StepFunction(Interval(0.0, 1.0), [0.0, 0.3, 0.7, 1.0], [0.0, 2.0, -1.0]))
        for _ in range(depth):
            x = glue(x, x, 0.5, 0.9, 2)
        return x

    steps, step = [], construct._piece_step
    monkeypatch.setattr(construct, "_piece_step", lambda e: steps.append(id(e)) or step(e))
    x = chain(12)
    assert required_pieces(x) == 3 * 12**12
    assert sorted(steps) == sorted(id(node) for node in x.nodes)
    assert required_pieces(chain(2)) == materialize(chain(2)).piece_count == 3 * 12**2
    assert required_pieces(chain(40)) == 3 * 12**40


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
    h = homogenize(e0, lam, 4)
    g = glue(h, e1, alpha, lam, 4)
    # cached node distribution equals the full-carrier (base-period) query
    # distribution, on every kind of node with children
    for node in (h, g, periodize(h), periodize(e1)):
        assert tv_distance(node.distribution(), query(node, node.content_bounds()).distribution) < 1e-12
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


def test_depth_guard_raises_internal_error():
    from meanosc.errors import InternalError

    e = leaf(sign_step())
    for _ in range(25):
        e = homogenize(e, 0.5, 1)
    assert query(e, (-0.3, 0.2)).depth == 26
    e.depth = 0  # forge a depth that understates the structure: the limit becomes 20 levels
    with pytest.raises(InternalError):
        query(e, (-0.3, 0.2))


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


def _descendants(root):
    """The root and every node reached from it through ``_layout`` copies, once each."""
    seen, out, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        if not isinstance(node, (ConstExpr, LeafExpr)):
            stack.extend(child for child, _, _ in _layout(node)[1])
    return out


def _node_arcs(rng, node, k):
    if node.is_circle or hasattr(node, "_ck"):
        ls, rs = _batch_arcs(rng, node)
        pick = rng.permutation(ls.size)[:k]
        return ls[pick], rs[pick]
    a, b = node.carrier
    ls = np.concatenate(([a, a], rng.uniform(a, b - 1e-3 * (b - a), k - 2)))
    rs = np.concatenate(([b, 0.5 * (a + b)], np.minimum(ls[2:] + rng.uniform(1e-6, 0.5, k - 2) * (b - a), b)))
    return ls, rs


def _staircase_dag():
    # a compiled depth-6 log-staircase peeling martingale, as verify_jn builds it
    _, tree = log_staircase(math.exp(0.3 / 5.0), 6)
    return compile_to_circle(tree, (0.9, 20))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_multi_root_batch_matches_per_root_batches_of_one(seed):
    # rows of the root and of every descendant in one pass equal, row by
    # row, a batch of one against the row's own node
    rng = np.random.default_rng(seed)
    cases = {**_batch_cases(rng), "staircase": _staircase_dag()}
    for name, e in cases.items():
        nodes = _descendants(e)
        requests = [(node, *_node_arcs(rng, node, 6)) for node in nodes]
        batches = query_batches(requests)
        assert len(batches) == len(nodes)
        for (node, ls, rs), batch in zip(requests, batches):
            assert batch.masses.shape == (ls.size, node.atom_values.size)
            for i, (l, r) in enumerate(zip(ls.tolist(), rs.tolist())):
                one = query_batch(node, [l], [r])
                assert batch.masses[i].tobytes() == one.masses[0].tobytes(), (name, node, l, r)
                for field in ("depth", "nodes_visited", "partial_end_weight"):
                    assert getattr(batch, field)[i] == getattr(one, field)[0], (name, node, l, r, field)


def _unshadowed(roots):
    """The nodes a pass over ``roots`` runs: every node reached from them without passing below a one-atom node."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if node.atom_values.size > 1:
                stack.extend(node.children)
    return seen


def test_pass_enters_each_distinct_node_once(monkeypatch):
    # one pass runs every node not below a one-atom node once, however many
    # roots and parents send it ranges, and no node strictly below one
    splits, trails = {}, []

    def counted(method):
        def run(self, q):
            splits[id(self)] = splits.get(id(self), 0) + 1
            return method(self, q)

        return run

    class Trail(construct._Trail):
        def __init__(self, n):
            super().__init__(n)
            trails.append(self)

    # leaves and constants split through the base class
    for cls in (construct.ConstructExpr, construct.HomExpr, construct._CircleExpr):
        monkeypatch.setattr(cls, "_split", counted(cls._split))
    monkeypatch.setattr(construct, "_Trail", Trail)
    rng = np.random.default_rng(7)
    shadowed = 0
    for e in (*_batch_cases(rng).values(), _staircase_dag()):
        nodes = _descendants(e)
        assert {id(n) for n in nodes} == {id(n) for n in e.nodes}
        # the rows of every node at once, then a batch of the root alone
        for roots, k in ((nodes, 4), ([e], 20)):
            splits.clear()
            trails.clear()
            query_batches([(node, *_node_arcs(rng, node, k)) for node in roots])
            ran = _unshadowed(roots)
            # one pass, one run per node; a one-atom node answers from its
            # ranges' lengths and splits none
            assert len(trails) == 1 and len(trails[0].sources) == len(ran)
            assert set(splits) == {key for key, node in ran.items() if node.atom_values.size > 1}
            assert set(splits.values()) == {1}
        shadowed += len(nodes) - len(ran)
    # the glue of glues and the staircase hold constants below one-atom homogenizations
    assert shadowed >= 10


def _one_atom_cases():
    """One-atom roots, each with a many-atom twin of the same geometry."""
    f = leaf(sign_step())
    g = leaf(StepFunction(Interval(0.0, 1.0), [0.0, 0.4, 1.0], [2.0, 5.0]))
    c = constant(0.7)
    return {
        "hom": (homogenize(c, 0.6, 4), homogenize(f, 0.6, 4)),
        "periodized hom": (periodize(homogenize(c, 0.999, 40)), periodize(homogenize(f, 0.999, 40))),
        "glue of equal homs": (
            glue(homogenize(c, 0.7, 3), homogenize(constant(0.7), 0.8, 2), 0.3, 0.6, 5),
            glue(homogenize(f, 0.7, 3), homogenize(g, 0.8, 2), 0.3, 0.6, 5),
        ),
    }


def test_one_atom_roots_answer_with_lengths():
    rng = np.random.default_rng(11)
    for name, (e, twin) in _one_atom_cases().items():
        assert e.atom_values.size == 1 and twin.atom_values.size > 1
        ls, rs = _node_arcs(rng, e, 16)
        batch, twins = query_batch(e, ls, rs), query_batch(twin, ls, rs)
        # the masses are the lengths, and nothing below the root runs
        assert batch.masses[:, 0].tobytes() == (rs - ls).tobytes(), name
        assert (batch.depth == 1).all() and (batch.nodes_visited == 1).all(), name
        # the partial end weight is the root's own decomposition's: the twin's
        assert batch.partial_end_weight.tobytes() == twins.partial_end_weight.tobytes(), name
        assert twins.partial_end_weight.max() > 0, name
        for i, (l, r) in enumerate(zip(ls.tolist(), rs.tolist())):
            one = query_batch(e, [l], [r])
            assert batch.masses[i].tobytes() == one.masses[0].tobytes(), (name, l, r)
            assert batch.partial_end_weight[i] == one.partial_end_weight[0], (name, l, r)
            assert query(e, (l, r)).distribution.is_delta


def test_one_atom_subtrees_keep_batches_of_one():
    # the staircase's constants sit under one-atom homogenizations; rows
    # of the root, of each one-atom case and of each case glued to a leaf
    # equal batches of one bitwise
    rng = np.random.default_rng(12)
    cases = [_staircase_dag()]
    for e, _ in _one_atom_cases().values():
        cases += [e, glue(leaf(sign_step()), e, 0.45, 0.8, 4)]
    for e in cases:
        ls, rs = _node_arcs(rng, e, 24)
        batch = query_batch(e, ls, rs)
        for i, (l, r) in enumerate(zip(ls.tolist(), rs.tolist())):
            one = query_batch(e, [l], [r])
            assert batch.masses[i].tobytes() == one.masses[0].tobytes(), (e, l, r)
            for field in ("depth", "nodes_visited", "partial_end_weight"):
                assert getattr(batch, field)[i] == getattr(one, field)[0], (e, l, r, field)
