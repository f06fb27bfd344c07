"""Supremum searches: sharp examples, witnesses, brackets, invariances."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanosc.construct import constant, glue, homogenize, leaf, materialize, periodize
from meanosc.errors import InputError
from meanosc.search import (
    SearchConfig,
    _Best,
    _BmoObjective,
    _DagSearch,
    _geom_lengths,
    _golden_max,
    _layout,
    a_inf_constant,
    ap_constant,
    bmo_norm,
    circle_bmo_norm,
    exp_integral,
    reverse_holder_ratio,
    weak_distribution,
)
from meanosc.stepfun import CIRCLE, Interval, StepFunction


def sign_step() -> StepFunction:
    return StepFunction(Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])


def split_step() -> StepFunction:
    return StepFunction(Interval(0.0, 1.0), [0.0, 0.75, 1.0], [0.0, 1.0])


def two_step_weight() -> StepFunction:
    return StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [2.0, 0.5])


CFG = SearchConfig(refine_iters=48)


# -- oscillation norms ---------------------------------------------------------


def test_sign_norm_is_one_for_all_p():
    for p in (1.0, 2.0, 3.0):
        r = bmo_norm(sign_step(), p, CFG)
        assert r.lower == pytest.approx(1.0, abs=1e-12)


def test_split_interior_optimum():
    # the supremum 1/2 is attained at [1/2, 1], not at breakpoint pairs
    for p in (1.0, 2.0):
        r = bmo_norm(split_step(), p, CFG)
        assert r.lower == pytest.approx(0.5, abs=1e-6)
        assert r.witness.length == pytest.approx(0.5, abs=1e-3)


def test_split_breakpoint_only_scan_undershoots():
    f = split_step()
    bp = f.breakpoints
    best = max(
        f.central_moment((bp[i], bp[j]), 1.0)
        for i in range(len(bp))
        for j in range(i + 1, len(bp))
    )
    assert best == pytest.approx(0.375, abs=1e-12)


def test_constant_norm_zero():
    f = StepFunction(Interval(0.0, 1.0), [0.0, 1.0], [5.0])
    assert bmo_norm(f, 2.0, CFG).lower == 0.0


def test_norm_rejects_bad_p_and_circle_target():
    with pytest.raises(InputError):
        bmo_norm(sign_step(), 0.5, CFG)
    circ = StepFunction(CIRCLE, [0.0, 0.5, 1.0], [-1.0, 1.0])
    with pytest.raises(InputError):
        bmo_norm(circ, 2.0, CFG)
    with pytest.raises(InputError):
        circle_bmo_norm(sign_step(), 2.0, CFG)


def test_witness_reproduces_lower_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
        f = StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))
        for p in (1.0, 2.0):
            r = bmo_norm(f, p, CFG)
            direct = f.central_moment(r.witness, p) ** (1.0 / p)
            assert direct == pytest.approx(r.lower, abs=1e-12)


def test_monotone_convergence_in_grid_and_refinement():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
        f = StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))
        prev = -math.inf
        for grid, iters in ((1, 8), (3, 24), (7, 48)):
            cfg = SearchConfig(grid_points=grid, refine_iters=iters)
            lb = bmo_norm(f, 1.0, cfg).lower
            assert lb >= prev - 1e-12
            prev = lb


def test_thread_count_does_not_change_report():
    f = split_step()
    base = bmo_norm(f, 1.0, SearchConfig(refine_iters=24, threads=1)).to_dict()
    for threads in (2, 4):
        got = bmo_norm(f, 1.0, SearchConfig(refine_iters=24, threads=threads)).to_dict()
        assert got["lower"] == base["lower"]
        assert got["witness"] == base["witness"]
        assert got["evaluations"] == base["evaluations"]


def test_certified_upper_dominates_dense_scan():
    rng = np.random.default_rng(21)
    n = 4
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, n - 1)), [1.0]))
    f = StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))
    cfg = SearchConfig(refine_iters=32, certify=True)
    report = bmo_norm(f, 2.0, cfg)
    assert report.upper is not None and report.lower <= report.upper
    xs = np.linspace(0.0, 1.0, 120)
    dense = max(
        f.central_moment((a, b), 2.0) ** 0.5
        for i, a in enumerate(xs)
        for b in xs[i + 1 :]
    )
    assert dense <= report.upper + 1e-12


def test_certified_circle_upper_dominates_dense_scan():
    rng = np.random.default_rng(23)
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]))
    f = StepFunction(CIRCLE, bp, rng.normal(size=3))
    cfg = SearchConfig(refine_iters=24, certify=True, r_long=256, max_periods=512)
    report = circle_bmo_norm(f, 1.0, cfg)
    assert report.upper is not None and report.lower <= report.upper
    xs = np.linspace(0.0, 3.0, 80)
    dense = max(
        f.central_moment((a, b), 1.0)
        for i, a in enumerate(xs)
        for b in xs[i + 1 :]
    )
    assert dense <= report.upper + 1e-12


def test_lipschitz_composition_bound_across_p():
    from meanosc.stepfun import compose_monotone
    from meanosc.verify import random_monotone_map, random_step_function

    rng = np.random.default_rng(29)
    cfg = SearchConfig(refine_iters=32)
    for _ in range(20):
        f = random_step_function(rng)
        g = random_monotone_map(rng, lipschitz=1.0)
        for p in (1.0, 2.0, 3.0):
            base = bmo_norm(f, p, cfg).lower
            composed = bmo_norm(compose_monotone(f, g), p, cfg).lower
            assert composed <= g.lipschitz * base + 1e-6


def _scalar_golden_max(f, lo, hi, iters):
    # one-bracket reference with scalar branches, to check the lockstep routine against
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(max(iters - 2, 0)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        x, v = (c, fc) if fc >= fd else (d, fd)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def test_golden_lanes_are_independent():
    # a batch of k brackets returns, bitwise, what k batches of one and the
    # scalar reference return; the last two lanes have a flat top, where
    # only the tie rule picks the probe, and a -inf part, like a clipped
    # junction probe
    centers = np.linspace(-0.8, 0.9, 7)
    powers = np.linspace(0.5, 3.0, 7)
    lo = np.concatenate((centers - np.linspace(0.1, 1.3, 7), [0.0, 0.0]))
    hi = np.concatenate((centers + np.linspace(1.1, 0.2, 7), [1.0, 1.0]))

    def lane_value(k, x):
        if k == centers.size:
            return -max(abs(x - 0.4) - 0.3, 0.0)
        if k == centers.size + 1:
            return -math.inf if x < 0.5 else -((x - 0.55) ** 2)
        return -abs(x - centers[k]) ** powers[k]

    def batched(lanes, probes):
        def f(xs):
            assert xs.shape == (len(lanes),)
            probes.append(xs.size)
            return np.array([lane_value(k, x) for k, x in zip(lanes, xs.tolist())])

        return f

    for iters in (1, 2, 3, 40):
        probes = []
        xs, vs = _golden_max(batched(range(lo.size), probes), lo, hi, iters)
        assert sum(probes) == lo.size * max(iters, 2)
        for k in range(lo.size):
            x1, v1 = _golden_max(batched([k], []), lo[k : k + 1], hi[k : k + 1], iters)
            xr, vr = _scalar_golden_max(lambda x: lane_value(k, x), float(lo[k]), float(hi[k]), iters)
            assert x1[0].tobytes() == xs[k].tobytes() == np.float64(xr).tobytes()
            assert v1[0].tobytes() == vs[k].tobytes() == np.float64(vr).tobytes()
        assert vs[-1] > -math.inf


class _RecordingBest(_Best):
    def __init__(self):
        super().__init__()
        self.offers = []

    def offer(self, value, left, right):
        self.offers.append((float(value).hex(), float(left).hex(), float(right).hex()))
        super().offer(value, left, right)


def _reference_junction_scan(engine, node, c, scale_lo, scale_hi, best, clip):
    # one junction at a time, one arc per query: the offers the lockstep scan must replay
    cfg = engine.cfg

    def arcs(ts, ells, offer):
        ls, rs = c - ts * ells, c + (1.0 - ts) * ells
        if clip is not None:
            ls, rs = np.maximum(ls, clip[0]), np.minimum(rs, clip[1])
        vs = np.full(ls.size, -math.inf)
        for k, (l, r) in enumerate(zip(ls.tolist(), rs.tolist())):
            if r - l > 1e-15:
                vs[k] = v = engine.value_at(node, np.array([l]), np.array([r]))[0]
                if offer:
                    best.offer(v, l, r)
        return ls, rs, vs

    lengths = _geom_lengths(max(scale_lo, 1e-13), scale_hi, max(2, cfg.grid_points))
    offsets = np.arange(1, 2**cfg.dyadic_level) / 2.0**cfg.dyadic_level
    ls, rs, vs = arcs(np.tile(offsets, lengths.size), np.repeat(lengths, offsets.size), True)
    top = [k for k in np.argsort(-vs, kind="stable")[:4] if vs[k] > -math.inf]
    ell0 = (rs[top] - ls[top]).tolist()
    t0 = np.array([min(max((c - l) / e, 0.0), 1.0) for l, e in zip(ls[top].tolist(), ell0)])
    x0 = [math.log(e) for e in ell0]
    log_lo, log_hi = math.log(max(scale_lo, 1e-13)), math.log(scale_hi)

    def exps(xs):
        return np.array([math.exp(x) for x in xs.tolist()])

    lo, hi = [max(x - 2.0, log_lo) for x in x0], [min(x + 2.0, log_hi) for x in x0]
    lx, _ = _golden_max(lambda xs: arcs(t0, exps(xs), False)[2], lo, hi, cfg.refine_iters)
    ell1 = exps(lx)
    tt, _ = _golden_max(lambda ts: arcs(ts, ell1, False)[2], np.zeros(len(top)), np.ones(len(top)), cfg.refine_iters)
    arcs(tt, ell1, True)


def _dag_leaves():
    f = StepFunction(Interval(0.0, 1.0), [0.0, 0.3, 0.7, 1.0], [0.0, 2.0, -1.0])
    g = StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [1.0, -0.5])
    return leaf(f), leaf(g)


def test_junction_scan_replays_per_junction_order():
    # all junctions of a node in one grid query and one query per golden
    # step must offer, bitwise and in order, what one junction at a time
    # with one arc per query offers
    f, g = _dag_leaves()
    nodes = (glue(homogenize(f, 0.95), g, 0.4, 0.95), homogenize(homogenize(f, 0.9), 0.95))
    cfg = SearchConfig(refine_iters=12)
    for node in nodes:
        full, _, junctions = _layout(node)
        clip, scale_hi = (None, 2.0) if node.is_circle else (full, full[1] - full[0])
        for p in (1.0, 2.0):
            lockstep, reference = _DagSearch(_BmoObjective(p), cfg), _DagSearch(_BmoObjective(p), cfg)
            got, want = _RecordingBest(), _RecordingBest()
            lockstep._junction_scan(node, junctions, scale_hi, got, clip)
            for c, scale_lo in junctions:
                _reference_junction_scan(reference, node, c, scale_lo, scale_hi, want, clip)
            assert len(want.offers) > 100
            assert got.offers == want.offers, (node, p)
            assert lockstep.evaluations == reference.evaluations
            assert lockstep.raw_max == reference.raw_max


def test_dag_circle_report_keeps_evaluation_count():
    # the count a junction-at-a-time scan with one query per arc made
    f, g = _dag_leaves()
    e = periodize(glue(homogenize(f, 0.95), g, 0.4, 0.95))
    for p in (1.0, 2.0):
        assert circle_bmo_norm(e, p, SearchConfig(refine_iters=24, certify=True)).evaluations == 23580


# -- circle searches -------------------------------------------------------------


def test_circle_sign_norm():
    circ = StepFunction(CIRCLE, [0.0, 0.5, 1.0], [-1.0, 1.0])
    r = circle_bmo_norm(circ, 2.0, CFG)
    assert r.lower == pytest.approx(1.0, abs=1e-9)


def test_periodized_constant_norm_zero():
    p = periodize(constant(2.0))
    assert circle_bmo_norm(p, 1.0, CFG).lower == 0.0


def test_glued_constants_circle_norm_bracket():
    g = glue(constant(0.0), constant(1.0), 0.5, 0.99, None)
    cfg = SearchConfig(refine_iters=32, certify=True, r_long=512, max_periods=1024)
    r = circle_bmo_norm(g, 1.0, cfg)
    # two-valued oscillation is 2x(1-x) <= 1/2
    assert r.lower <= 0.5 + 1e-9
    assert abs(r.lower - 0.5) <= 0.02
    assert r.upper is not None and r.upper >= 0.5 - 1e-9


def test_homogenized_sign_norm_not_increasing_in_lambda():
    lows = []
    for lam in (0.5, 0.9, 0.99):
        p = periodize(homogenize(leaf(sign_step()), lam))
        lows.append(circle_bmo_norm(p, 2.0, SearchConfig(refine_iters=24)).lower)
    assert lows[0] >= lows[1] - 1e-9 >= lows[2] - 2e-9
    assert lows[2] <= 1.1


def test_restriction_below_circle_norm():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, n - 1)), [1.0]))
        f = StepFunction(CIRCLE, bp, rng.normal(size=n))
        circle = circle_bmo_norm(f, 2.0, CFG).lower
        restricted = bmo_norm(f.restrict((0.0, 1.0)), 2.0, CFG).lower
        assert restricted <= circle + 1e-9


def test_weight_restriction_below_circle_constant():
    rng = np.random.default_rng(37)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, n - 1)), [1.0]))
        w = StepFunction(CIRCLE, bp, rng.uniform(0.2, 3.0, size=n))
        circle = ap_constant(w, 2.0, CFG).lower
        restricted = ap_constant(w.restrict((0.0, 1.0)), 2.0, CFG).lower
        assert restricted <= circle + 1e-9


# -- weight constants ---------------------------------------------------------------


def test_unit_weight_constants_are_one():
    w = StepFunction(Interval(0.0, 1.0), [0.0, 1.0], [1.0])
    assert ap_constant(w, 2.0, CFG).lower == 1.0
    assert a_inf_constant(w, CFG).lower == 1.0


def test_two_step_weight_a2():
    r = ap_constant(two_step_weight(), 2.0, CFG)
    assert r.lower == pytest.approx(25.0 / 16.0, abs=1e-9)


def test_power_staircase_a2_close_to_closed_form():
    from meanosc.martingales import power_staircase

    stair, _ = power_staircase(0.5, 2.0, 1.05, 200)
    r = ap_constant(stair, 2.0, SearchConfig(refine_iters=32))
    assert r.lower == pytest.approx(4.0 / 3.0, rel=0.02)


def test_ap_rejects_bad_inputs():
    with pytest.raises(InputError):
        ap_constant(sign_step(), 2.0, CFG)  # nonpositive values
    with pytest.raises(InputError):
        ap_constant(two_step_weight(), 1.0, CFG)


# -- exact single-interval functionals -------------------------------------------------


def test_weak_distribution_values():
    f = sign_step()
    assert weak_distribution(f, (-1.0, 1.0), 1.0) == 1.0
    assert weak_distribution(f, (-1.0, 1.0), 1.1) == 0.0
    assert weak_distribution(split_step(), (0.0, 1.0), 0.5) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(InputError):
        weak_distribution(f, (-1.0, 1.0), 0.0)


def test_exp_integral_values():
    f = StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [0.0, 1.0])
    assert exp_integral(f, (0.0, 1.0), 1.0) == pytest.approx(0.5 * (1.0 + math.e), abs=1e-12)
    const = StepFunction(Interval(0.0, 1.0), [0.0, 1.0], [0.7])
    assert exp_integral(const, (0.0, 1.0), 2.0) == pytest.approx(math.exp(1.4), abs=1e-12)


def test_exp_integral_overflow_reports_inf():
    f = StepFunction(Interval(0.0, 1.0), [0.0, 1.0], [1000.0])
    assert exp_integral(f, (0.0, 1.0), 10.0) == math.inf


def test_exp_integral_dag_matches_atom_sum():
    g = glue(constant(0.0), constant(1.0), 0.25, 0.9, 20)
    direct = exp_integral(g, None, 1.0)
    d = g.distribution()
    atoms = float(np.dot(d.weights, np.exp(d.values)))
    assert abs(direct - atoms) < 1e-12


def test_reverse_holder_values():
    const = StepFunction(Interval(0.0, 1.0), [0.0, 1.0], [3.0])
    assert reverse_holder_ratio(const, (0.0, 1.0), 2.0) == pytest.approx(1.0, abs=1e-15)
    w = two_step_weight()
    assert reverse_holder_ratio(w, (0.0, 1.0), 2.0) == pytest.approx(
        math.sqrt(17.0 / 8.0) / 1.25, abs=1e-12
    )
    from meanosc.martingales import power_staircase

    stair, _ = power_staircase(0.5, 2.0, 1.05, 200)
    assert reverse_holder_ratio(stair, (0.0, 1.0), 2.0) == pytest.approx(1.06066, abs=1e-3)
    with pytest.raises(InputError):
        reverse_holder_ratio(w, (0.0, 1.0), 1.0)


# -- config validation ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InputError):
        SearchConfig(grid_points=0)
    with pytest.raises(InputError):
        SearchConfig(threads=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dag_interval_search_matches_flat(seed):
    # a materializable homogenization searched as a DAG and as a flat function
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, n - 1)), [1.0]))
    f = StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))
    h = homogenize(leaf(f), 0.6, 4)
    flat = materialize(h)
    cfg = SearchConfig(refine_iters=24)
    assert bmo_norm(h, 2.0, cfg).lower == pytest.approx(
        bmo_norm(flat, 2.0, cfg).lower, abs=1e-12
    )
