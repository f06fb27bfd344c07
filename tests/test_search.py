"""Supremum searches: sharp examples, witnesses, brackets, invariances."""
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from meanosc import search as search_module
from meanosc.construct import constant, glue, homogenize, leaf, materialize, periodize, required_pieces
from meanosc.errors import InputError
from meanosc.martingales import compile_to_circle, log_staircase
from meanosc.search import (
    SearchConfig,
    _Best,
    _BmoObjective,
    _DagSearch,
    _geom_lengths,
    _golden_max,
    _layout,
    _long_arc_grid,
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


def test_value_batch_rows_do_not_depend_on_the_batch():
    # every row of a batch is, bitwise, the value of that interval in a batch of one
    rng = np.random.default_rng(6)
    f = _random_step(rng, 9)
    w = StepFunction(f.domain, f.breakpoints, np.exp(f.values))
    ls = np.sort(rng.uniform(0.0, 1.0, (2, 200)), axis=0)
    for target, objective in (
        (f, _BmoObjective(1.0)),
        (f, _BmoObjective(1.5)),
        (f, _BmoObjective(3.0)),
        (w, search_module._ApObjective(2.0)),
        (w, search_module._AInfObjective()),
    ):
        flat = search_module._FlatTarget(target, objective)
        batch = flat.value_batch(ls[0], ls[1])
        ones = np.concatenate([flat.value_batch(ls[0, k : k + 1], ls[1, k : k + 1]) for k in range(ls.shape[1])])
        assert batch.tobytes() == ones.tobytes(), objective.name


def test_unenumerated_lower_is_its_witness_value():
    # BMO_p reports its witness's value, on intervals and circles, where it
    # refines (p = 1.5, 3, 4) and where it enumerates thresholds (p = 1);
    # when p = 1 also refined, seeds 1 and 11 chose a witness up to 9.5e-13
    # below the largest value seen, which was reported
    for seed in range(12):
        rng = np.random.default_rng(seed)
        f = _random_step(rng, int(rng.integers(2, 7)))
        circ = StepFunction(CIRCLE, f.breakpoints, f.values)
        for p in (1.0, 1.5, 3.0, 4.0):
            for target, search in ((f, bmo_norm), (circ, circle_bmo_norm)):
                r = search(target, p)
                at_witness = target.central_moment(r.witness, p) ** (1.0 / p)
                assert abs(at_witness - r.lower) <= 1e-15 * abs(r.lower), (p, target.is_circle)


def test_thread_count_does_not_change_report():
    f = split_step()
    base = bmo_norm(f, 3.0, SearchConfig(refine_iters=24, threads=1)).to_dict()
    for threads in (2, 4):
        got = bmo_norm(f, 3.0, SearchConfig(refine_iters=24, threads=threads)).to_dict()
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


def test_certified_flat_circle_bmo3_upper_dominates_dense_scan_of_long_arcs():
    # BMO_3 enumerates no cell pairs, so its certified circle upper is the
    # value-range bound, which holds for arcs of any length
    rng = np.random.default_rng(31)
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]))
    f = StepFunction(CIRCLE, bp, rng.normal(size=5))
    report = circle_bmo_norm(f, 3.0, SearchConfig(certify=True))
    assert report.lower <= report.upper
    xs = np.linspace(0.0, 3.0, 241)
    ls, rs = np.meshgrid(xs, xs, indexing="ij")
    ls, rs = ls[rs > ls], rs[rs > ls]
    ov = f.overlap_rows(ls, rs)
    means = ov @ f.values / (rs - ls)
    dense = float(((ov * np.abs(f.values - means[:, None]) ** 3).sum(axis=1) / (rs - ls)).max()) ** (1.0 / 3.0)
    assert dense <= report.upper


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


# -- BMO_p with p not in {1, 2}: jumps in closed form, Newton ascent ------------------


def _phi(p: float, t):
    # raw BMO_p of a unit jump with the fraction t of the interval left of it
    return t * (1.0 - t) ** p + (1.0 - t) * t**p


def test_half_jump_constants():
    # C_p = max φ_p: 2^-p at t = 1/2 up to p = 3, then at the root t* < 1/2 of φ_p'
    for p, c in ((1.0, 0.5), (2.0, 0.25), (3.0, 0.125)):
        assert search_module._jump_peak(p) == 0.5 and _phi(p, 0.5) == c
    t4 = search_module._jump_peak(4.0)
    assert abs(t4 - (1.0 - 3.0**-0.5) / 2.0) <= 2e-16
    assert abs(_phi(4.0, t4) - 1.0 / 12.0) <= 2e-16 / 12.0
    grid = np.linspace(0.0, 0.5, 500_001)
    for p in (1.5, 3.5, 6.0):
        t = search_module._jump_peak(p)
        values = _phi(p, grid)
        k = int(values.argmax())
        assert abs(t - grid[k]) <= 2e-6, p
        assert values[k] <= _phi(p, t) * (1.0 + 1e-15), p
    assert search_module._jump_peak(1.5) == 0.5 and search_module._jump_peak(3.5) < 0.5
    # the sign step's jump of 2: 8·C_3 = 1 and (16·C_4)^(1/4) = 2·12^(-1/4), on witnesses of weight t*
    assert abs(bmo_norm(sign_step(), 3.0).lower - 1.0) <= 1e-12
    r = bmo_norm(sign_step(), 4.0)
    assert abs(r.lower - 2.0 * 12.0**-0.25) <= 1e-12
    t = search_module._jump_peak(4.0)
    left, right = -r.witness.left, r.witness.right
    assert min(left, right) / (left + right) == pytest.approx(t, rel=1e-12)
    assert max(left, right) == 1.0


def _dense_pair_sup(f: StepFunction, p: float) -> float:
    """Largest central moment over every pair of the points ``b_k + h_k·m/64``, m < 64, and the right end."""
    bp = f.breakpoints
    points = np.concatenate(((bp[:-1, None] + np.diff(bp)[:, None] * (np.arange(64) / 64.0)).ravel(), bp[-1:]))
    a, b = np.triu_indices(points.size, 1)
    ov = f.overlap_rows(points[a], points[b])
    lengths = points[b] - points[a]
    mean = ov @ f.values / lengths
    raw = (ov * np.abs(f.values[None, :] - mean[:, None]) ** p).sum(axis=1) / lengths
    return float(raw.max()) ** (1.0 / p)


def test_newton_ascent_dominates_dense_pairs():
    # the lower is at least the best of every pair of 2^6 points per cell,
    # and thread counts change no report, bitwise
    for seed in range(12):
        rng = np.random.default_rng(seed)
        f = _random_step(rng, 3 + seed % 6)
        for p in (1.5, 3.0, 4.0):
            report = bmo_norm(f, p, SearchConfig(certify=True))
            dense = _dense_pair_sup(f, p)
            assert report.lower >= dense * (1.0 - 1e-13), (seed, p)
            got = bmo_norm(f, p, SearchConfig(certify=True, threads=2)).to_dict()
            got["config"]["threads"] = 1
            assert got == report.to_dict(), (seed, p)
    # 120 pieces make 115k candidate pairs, several chunks of the pair scan
    f = _random_step(np.random.default_rng(12), 120)
    base = bmo_norm(f, 3.0).to_dict()
    got = bmo_norm(f, 3.0, SearchConfig(threads=2)).to_dict()
    got["config"]["threads"] = 1
    assert got == base


def test_scaling_holds_at_every_value_scale():
    # bmo_p(s·f + 3s) = |s|·bmo_p(f) to 1e-12 relative for every order and
    # value scale, and A_p(c·w) = A_p(w); a relative tie tolerance keeps
    # the witness's value, the reported lower, within it of the maximum
    for seed in range(6):
        rng = np.random.default_rng(40 + seed)
        f = _random_step(rng, 3 + seed)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            base = bmo_norm(f, p).lower
            for s in (1e-13, 1e-10, 1e-6, 1.0, 1e8):
                g = StepFunction(f.domain, f.breakpoints, s * f.values + 3.0 * s)
                assert abs(bmo_norm(g, p).lower / s - base) <= 1e-12 * base, (seed, p, s)
        w = np.exp(f.values)
        for p in (1.5, 2.0, 3.0):
            base = ap_constant(StepFunction(f.domain, f.breakpoints, w), p).lower
            for c in (1e-13, 1e-10, 1e-6, 1e8):
                scaled = ap_constant(StepFunction(f.domain, f.breakpoints, c * w), p).lower
                assert abs(scaled - base) <= 1e-12 * base, (seed, p, c)
    # a jump of 1e-13 has BMO_2 half of it, not 0
    tiny = StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [0.0, 1e-13])
    assert abs(bmo_norm(tiny, 2.0).lower - 0.5e-13) <= 1e-12 * 0.5e-13


def test_dag_scaling_holds_at_every_value_scale():
    # bmo(s·f + 3s) = |s|·bmo(f) at p = 1 and 2, A_2(c·w) = A_2(w) and
    # A_inf(c·w) = A_inf(w) on construction DAGs, to 1e-12 relative: one
    # searched flat, one over _FLAT_LIMIT pieces searched structurally
    rng = np.random.default_rng(7)
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]))
    v = rng.normal(size=5)
    w = np.exp(v)

    def flat(vals):
        return periodize(homogenize(leaf(StepFunction(Interval(0.0, 1.0), bp, vals)), 0.5, 2))

    def dag(vals):
        f = StepFunction(Interval(0.0, 1.0), bp, vals)
        return glue(homogenize(leaf(f), 0.5, 6), leaf(f), 0.3, 0.5, 6)

    assert required_pieces(flat(v)) <= search_module._FLAT_LIMIT < required_pieces(dag(v))
    for build in (flat, dag):
        base = [circle_bmo_norm(build(v), p).lower for p in (1.0, 2.0)]
        a2, ainf = ap_constant(build(w), 2.0).lower, a_inf_constant(build(w)).lower
        for s in (1e-15, 1e-13, 1e-10, 1e8):
            for p, b in zip((1.0, 2.0), base):
                assert abs(circle_bmo_norm(build(s * v + 3.0 * s), p).lower / s - b) <= 1e-12 * b, (build, p, s)
            assert abs(ap_constant(build(s * w), 2.0).lower - a2) <= 1e-12 * a2, (build, s)
            assert abs(a_inf_constant(build(s * w)).lower - ainf) <= 1e-12 * ainf, (build, s)


def test_witness_is_in_the_scan():
    # every candidate a flat search offers joins its scan, the Newton
    # ascent's intervals too, so the witness is a row of it and no row is
    # short of the lower; on circles only arcs shorter than two periods
    # are scanned (longer ones are a grid outside the scan)
    searches = [lambda t, p=p: (circle_bmo_norm if t.is_circle else bmo_norm)(t, p, collect_scan=True)
                for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
    weights = [lambda t: ap_constant(t, 2.0, collect_scan=True), lambda t: a_inf_constant(t, collect_scan=True)]
    checked = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        f = _random_step(rng, 3 + seed % 6)
        w = StepFunction(f.domain, f.breakpoints, np.exp(f.values))
        for g, runs in ((f, searches), (w, weights)):
            for target in (g, StepFunction(CIRCLE, g.breakpoints, g.values)):
                for search in runs:
                    r = search(target)
                    if r.witness.length >= 2.0:
                        continue
                    rows = np.array(r.scan)
                    at = (rows[:, 0] == r.witness.left) & (rows[:, 1] == r.witness.right)
                    assert at.any(), (seed, target.is_circle)
                    assert rows[:, 3].max() >= r.lower * (1.0 - 1e-12), (seed, target.is_circle)
                    checked += 1
    # every witness of these circles is shorter than two periods
    assert checked == 12 * 14



# -- exact cell-pair enumeration: independent oracles ---------------------------------


def _random_step(rng, n: int) -> StepFunction:
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
    return StepFunction(Interval(0.0, 1.0), bp, rng.normal(size=n))


def _exact_raw_sup(f: StepFunction, kind: str):
    """Exact supremum of the raw BMO_2, A_2 or BMO_1 functional over subintervals, in rational arithmetic.

    BMO_1 is the largest over the function's values ``τ`` of ``2·(B/L −
    A·U/L²)``, with ``U`` and ``B`` the integrals of ``1{f ≥ τ}`` and ``f·1{f
    ≥ τ}`` (see ``_bmo1_threshold_sup``).  Per cell pair: the 4 corners of
    the ``(x, y)`` box, the edge roots of the derivative's numerator
    (checked to be affine), and, on adjacent cells, the largest box point
    of the ray along which the means sit at the vertex of the functional's
    quadratic on the chord.
    """
    if kind == "bmo1":
        return max(_bmo1_threshold_sup(f, tau) for tau in set(f.values.tolist()))
    v = [Fraction(x) for x in f.values.tolist()]
    bp = [Fraction(x) for x in f.breakpoints.tolist()]
    t2 = [x * x for x in v] if kind == "bmo2" else [1 / x for x in v]

    def F(A, B, L):
        return B / L - (A / L) ** 2 if kind == "bmo2" else A * B / L**2

    def numerator(A, B, L, a, b):
        # L³ times the derivative of F as an end moves into a cell of values (a, b)
        return L * (b * L - B) - 2 * A * (a * L - A) if kind == "bmo2" else L * (a * B + b * A) - 2 * A * B

    n, h = len(v), [bp[k + 1] - bp[k] for k in range(len(v))]
    best = max(F(v[k], t2[k], Fraction(1)) for k in range(n))  # intervals inside one cell
    for i in range(n):
        for j in range(i + 1, n):
            L0 = bp[j] - bp[i + 1]
            S1 = sum((v[k] * h[k] for k in range(i + 1, j)), Fraction(0))
            S2 = sum((t2[k] * h[k] for k in range(i + 1, j)), Fraction(0))

            def parts(x, y):
                return S1 + x * v[i] + y * v[j], S2 + x * t2[i] + y * t2[j], L0 + x + y

            points = [(x, y) for x in (0, h[i]) for y in (0, h[j])]
            for fixed, moving in (("y", 0), ("y", h[j]), ("x", 0), ("x", h[i])):
                k, hk = (i, h[i]) if fixed == "y" else (j, h[j])

                def at(z):
                    x, y = (z, moving) if fixed == "y" else (moving, z)
                    A, B, L = parts(x, y)
                    return numerator(A, B, L, v[k], t2[k]) if L > 0 else Fraction(0), (x, y)

                (g0, _), (g1, _), (gm, _) = at(Fraction(0)), at(hk), at(hk / 2)
                assert 2 * gm == g0 + g1
                if g0 != g1 and 0 < g0 / (g0 - g1) < 1:
                    points.append(at(hk * g0 / (g0 - g1))[1])
            if j == i + 1:
                # the functional on the chord (1 - w)·P_i + w·P_j is a quadratic in w
                q0, qh, q1 = (F(*parts(1 - w, w)[:2], Fraction(1)) for w in (Fraction(0), Fraction(1, 2), Fraction(1)))
                c = 2 * (q1 - 2 * qh + q0)
                if c < 0:
                    w = -(q1 - q0 - c) / (2 * c)
                    if 0 < w < 1:
                        s = min(h[i] / (1 - w), h[j] / w)
                        points.append((s * (1 - w), s * w))
            for x, y in points:
                A, B, L = parts(x, y)
                if L > 0:
                    best = max(best, F(A, B, L))
    return best


def _bmo1_threshold_sup(f: StepFunction, tau: float) -> Fraction:
    """Exact supremum over subintervals of ``R = 2·N/L²``, ``N = B·L − A·U``, for the threshold ``tau``.

    Per cell pair, in the coordinates ``s = x + y`` and ``t = x − y`` of the
    box: ``N = α + β·s + γ·s² + (δ·t − γ·t²)``, so for ``γ > 0`` a stationary
    point has ``t = δ/(2γ)``, and then ``R`` is a ratio of quadratics in
    ``s`` whose stationarity is linear in ``s``.  Candidates: the corners,
    the edge roots of the derivative's numerator (checked to be affine),
    that interior point, and where the line ``t = δ/(2γ)`` is stationary
    throughout, its largest box point.
    """
    v = [Fraction(x) for x in f.values.tolist()]
    e = [Fraction(int(x >= tau)) for x in f.values.tolist()]
    bp = [Fraction(x) for x in f.breakpoints.tolist()]
    n, h = len(v), [bp[k + 1] - bp[k] for k in range(len(v))]
    best = Fraction(0)  # intervals inside one cell
    for i in range(n):
        for j in range(i + 1, n):
            mid = range(i + 1, j)
            L0 = bp[j] - bp[i + 1]
            SA = sum((v[k] * h[k] for k in mid), Fraction(0))
            SU = sum((e[k] * h[k] for k in mid), Fraction(0))
            SB = sum((v[k] * e[k] * h[k] for k in mid), Fraction(0))

            def parts(x, y):
                return SA + x * v[i] + y * v[j], SU + x * e[i] + y * e[j], SB + x * v[i] * e[i] + y * v[j] * e[j], L0 + x + y

            def R(x, y):
                A, U, B, L = parts(x, y)
                return 2 * (B * L - A * U) / L**2 if L > 0 else None

            points = [(x, y) for x in (0, h[i]) for y in (0, h[j])]
            for fixed, moving in (("y", 0), ("y", h[j]), ("x", 0), ("x", h[i])):
                k, hk = (i, h[i]) if fixed == "y" else (j, h[j])

                def at(z):
                    # L³/2 times the derivative of R as the end moves into cell k
                    x, y = (z, moving) if fixed == "y" else (moving, z)
                    A, U, B, L = parts(x, y)
                    N = B * L - A * U
                    dN = v[k] * e[k] * L + B - v[k] * U - A * e[k]
                    return dN * L - 2 * N, (x, y)

                (g0, _), (g1, _), (gm, _) = at(Fraction(0)), at(hk), at(hk / 2)
                assert 2 * gm == g0 + g1
                if g0 != g1 and 0 < g0 / (g0 - g1) < 1:
                    points.append(at(hk * g0 / (g0 - g1))[1])
            # N at (x, y) = ((s + t)/2, (s − t)/2): fit α, β, γ, δ from N itself
            def N(s, t):
                A, U, B, L = parts(Fraction(s + t, 2), Fraction(s - t, 2))
                return B * L - A * U

            alpha = N(0, 0)
            gamma = (N(2, 0) - 2 * N(1, 0) + alpha) / 2
            beta = N(1, 0) - alpha - gamma
            delta = (N(0, 1) - N(0, -1)) / 2
            assert N(0, 1) == alpha + delta - gamma
            if gamma > 0:
                t = delta / (2 * gamma)
                # with c0 = α + δ·t − γ·t², R = 2·(c0 + β·s + γ·s²)/(L0 + s)², stationary where
                # (β + 2γ·s)(L0 + s) = 2·(c0 + β·s + γ·s²), linear in s
                c0 = alpha + delta * t - gamma * t * t
                slope, const = 2 * gamma * L0 - beta, beta * L0 - 2 * c0
                if slope != 0:
                    s = -const / slope
                    points.append(((s + t) / 2, (s - t) / 2))
                elif const == 0:
                    s = min(2 * h[i] - t, 2 * h[j] + t)
                    points.append(((s + t) / 2, (s - t) / 2))
            for x, y in points:
                if 0 <= x <= h[i] and 0 <= y <= h[j] and R(x, y) is not None:
                    best = max(best, R(x, y))
    return best


def _exact_raw(f: StepFunction, kind: str, q) -> Fraction:
    l, r = Fraction(q.left), Fraction(q.right)
    ovs = [max(min(r, Fraction(f.breakpoints[k + 1])) - max(l, Fraction(f.breakpoints[k])), Fraction(0)) for k in range(f.values.size)]
    vals = [Fraction(x) for x in f.values.tolist()]
    L = r - l
    A = sum((ov * x for ov, x in zip(ovs, vals)), Fraction(0))
    if kind == "bmo1":
        return sum((ov * abs(x - A / L) for ov, x in zip(ovs, vals)), Fraction(0)) / L
    B = sum((ov * (x * x if kind == "bmo2" else 1 / x) for ov, x in zip(ovs, vals)), Fraction(0))
    return B / L - (A / L) ** 2 if kind == "bmo2" else A * B / L**2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 100.0]))
def test_enumerated_bracket_holds_the_exact_supremum(seed, offset):
    # lower is its witness's value, which is within 1e-12 of the exact
    # supremum; the certified upper is at least the exact supremum and
    # within 1e-12 of lower
    rng = np.random.default_rng(seed)
    f = _random_step(rng, int(rng.integers(2, 6)))
    targets = {
        "bmo2": (StepFunction(f.domain, f.breakpoints, f.values + offset), lambda t: bmo_norm(t, 2.0, SearchConfig(certify=True)), 2),
        "a2": (StepFunction(f.domain, f.breakpoints, np.exp(f.values)), lambda t: ap_constant(t, 2.0, SearchConfig(certify=True)), 1),
        "bmo1": (StepFunction(f.domain, f.breakpoints, f.values + offset), lambda t: bmo_norm(t, 1.0, SearchConfig(certify=True)), 1),
    }
    for kind, (target, search, power) in targets.items():
        report = search(target)
        exact = _exact_raw_sup(target, kind)
        at_witness = _exact_raw(target, kind, report.witness)
        assert at_witness <= exact
        assert at_witness >= exact * (1 - Fraction(1, 10**12)), kind
        assert abs(Fraction(report.lower) ** power - at_witness) <= Fraction(1, 10**14) * at_witness, kind
        assert Fraction(report.upper) ** power >= exact, kind
        assert report.upper <= report.lower * (1 + 1e-12), kind


def _lbfgs_max(f: StepFunction, value) -> float:
    """Multi-start L-BFGS-B maximum of ``value`` over every cell pair's ``(x, y)`` box."""
    bp, h = f.breakpoints, np.diff(f.breakpoints)
    best = -math.inf
    for i in range(h.size):
        for j in range(i + 1, h.size):

            def neg(z, i=i, j=j):
                l, r = bp[i + 1] - z[0], bp[j] + z[1]
                return -value((l, r)) if r - l > 1e-14 else 0.0

            for sx in (0.25, 0.75):
                for sy in (0.25, 0.75):
                    res = minimize(neg, [sx * h[i], sy * h[j]], method="L-BFGS-B", bounds=[(0.0, h[i]), (0.0, h[j])])
                    best = max(best, -float(res.fun))
    return best


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumeration_dominates_local_optimizer(seed):
    rng = np.random.default_rng(seed)
    f = _random_step(rng, int(rng.integers(2, 6)))
    w = StepFunction(f.domain, f.breakpoints, np.exp(f.values))
    cases = [
        (bmo_norm(f, 1.0).lower, f, lambda q: f.central_moment(q, 1.0)),
        (bmo_norm(f, 2.0).lower, f, lambda q: f.central_moment(q, 2.0) ** 0.5),
        (ap_constant(w, 2.0).lower, w, lambda q: w.distribution(q).ap_form(2.0)),
        (ap_constant(w, 3.0).lower, w, lambda q: w.distribution(q).ap_form(3.0)),
        (a_inf_constant(w).lower, w, lambda q: w.distribution(q).geometric_form()),
    ]
    for lower, target, value in cases:
        local = _lbfgs_max(target, value)
        assert lower >= local - 1e-12 * abs(local)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumeration_scaling_properties(seed):
    # bmo_p(a·f + b) = |a|·bmo_p(f) for p = 1, 2 and A_p(c·w) = A_p(w), at value scales 1e-6 to 1e6
    rng = np.random.default_rng(seed)
    f = _random_step(rng, int(rng.integers(2, 7)))
    for p in (1.0, 2.0):
        base = bmo_norm(f, p).lower
        for a in (1e-6, -1e-3, 1.0, -1e3, 1e6):
            g = StepFunction(f.domain, f.breakpoints, a * f.values + 3.0 * a)
            assert bmo_norm(g, p).lower == pytest.approx(abs(a) * base, rel=1e-12)
    w = np.exp(f.values)
    for p in (1.5, 2.0, 3.0):
        base = ap_constant(StepFunction(f.domain, f.breakpoints, w), p).lower
        for c in (1e-6, 1e-3, 1e3, 1e6):
            assert ap_constant(StepFunction(f.domain, f.breakpoints, c * w), p).lower == pytest.approx(base, rel=1e-12)
    # at w = 1 the identity reads A_p(c) = A_p(1) = 1, and no rounding may put it below 1 (Jensen)
    for c in (1e-6, 1e-3, 0.1, 2.5, 7.3, 1e3, 1e6):
        weight = StepFunction(f.domain, f.breakpoints, np.full(f.piece_count, c))
        for value in [ap_constant(weight, p).lower for p in (1.5, 2.0, 3.0)] + [a_inf_constant(weight).lower]:
            assert 1.0 <= value <= 1.0 + 1e-12


def test_newton_ascent_returns_distinct_lanes(monkeypatch):
    # 32 lanes on 5 pieces at p = 3 end at 3 distinct intervals: a lane
    # that meets an earlier one has its future and retires, and no
    # interval is returned twice
    ascent, returned = search_module._newton_ascent, []

    def recorded(*args):
        returned.append(ascent(*args))
        return returned[-1]

    monkeypatch.setattr(search_module, "_newton_ascent", recorded)
    bmo_norm(_random_step(np.random.default_rng(0), 5), 3.0)
    (ls, rs), = returned
    assert 0 < len(set(zip(ls.tolist(), rs.tolist()))) == ls.size


def test_two_pieces_need_no_newton_ascent(monkeypatch):
    # two pieces have no cell pair two or more cells apart: the pair scan
    # leads no Newton lane, and the jump's closed form is the supremum,
    # |d|^p·C_p with C_3 = 2^-3
    def refuse(*args, **kwargs):
        raise AssertionError("Newton ascent without leaders")

    monkeypatch.setattr(search_module, "_oscillation_parts", refuse)
    f = StepFunction(Interval(0.0, 1.0), [0.0, 0.3, 1.0], [0.0, 2.0])
    assert bmo_norm(f, 3.0, SearchConfig(certify=True)).lower == pytest.approx(1.0, rel=1e-12)


def test_mean_decomposable_flat_searches_never_refine(monkeypatch):
    # BMO_1, BMO_2, A_p and A_inf enumerate cell pairs on intervals and
    # circles; BMO_p with p not in {1, 2} takes jumps in closed form and
    # ascends by Newton, so no flat search refines by golden section
    def refuse(*args, **kwargs):
        raise AssertionError("golden-section probe")

    monkeypatch.setattr(search_module, "_golden_max", refuse)
    rng = np.random.default_rng(3)
    f = _random_step(rng, 6)
    w = StepFunction(f.domain, f.breakpoints, np.exp(f.values))
    circ = StepFunction(CIRCLE, f.breakpoints, f.values)
    circ_w = StepFunction(CIRCLE, f.breakpoints, np.exp(f.values))
    cfg = SearchConfig(certify=True)
    for report in (
        bmo_norm(f, 1.0, cfg),
        bmo_norm(f, 2.0, cfg),
        ap_constant(w, 1.5, cfg),
        ap_constant(w, 2.0, cfg),
        ap_constant(w, 3.0, cfg),
        a_inf_constant(w, cfg),
        circle_bmo_norm(circ, 1.0, cfg),
        circle_bmo_norm(circ, 2.0, cfg),
        ap_constant(circ_w, 2.0, cfg),
        a_inf_constant(circ_w, cfg),
        bmo_norm(f, 1.5, cfg),
        bmo_norm(f, 3.0, cfg),
        bmo_norm(f, 4.0, cfg),
        circle_bmo_norm(circ, 3.0, cfg),
    ):
        assert report.lower <= report.upper


def test_enumeration_report_does_not_depend_on_threads():
    # 200 pieces make 19900 cell pairs, several chunks, and at p = 1 more (pair, threshold) rows
    rng = np.random.default_rng(11)
    f = _random_step(rng, 200)
    circ = StepFunction(CIRCLE, f.breakpoints, f.values)
    for search in (
        lambda cfg: bmo_norm(f, 2.0, cfg),
        lambda cfg: circle_bmo_norm(circ, 2.0, cfg),
        lambda cfg: bmo_norm(f, 1.0, cfg),
        lambda cfg: circle_bmo_norm(circ, 1.0, cfg),
    ):
        base = search(SearchConfig(certify=True)).to_dict()
        got = search(SearchConfig(certify=True, threads=3)).to_dict()
        got["config"]["threads"] = 1
        assert got == base


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


def _zero_one_step(pieces: int) -> StepFunction:
    return StepFunction(Interval(0.0, 1.0), np.linspace(0.0, 1.0, pieces + 1), np.arange(pieces) % 2.0)


def _traced_peak(search):
    tracemalloc.start()
    try:
        report = search()
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_scan_memory_stays_small():
    # p = 3 still scans pairs to seed its Newton ascent: 320 pieces at
    # grid level 2 have 1281 candidate points, whose 820k pairs have their
    # ends built a chunk at a time, and only the leaders found so far are
    # held across chunks
    r, peak = _traced_peak(lambda: bmo_norm(_zero_one_step(320), 3.0))
    assert peak < 64 * 2**20
    assert r.lower == pytest.approx(0.5, rel=1e-12)
    assert r.evaluations == 820353


def test_pair_enumeration_memory_stays_small():
    # p = 2 enumerates the 180k cell pairs of 600 pieces a chunk at a time
    r, peak = _traced_peak(lambda: bmo_norm(_zero_one_step(600), 2.0))
    assert peak < 64 * 2**20
    assert r.lower == pytest.approx(0.5, rel=1e-12)


def test_threshold_enumeration_memory_stays_small():
    # p = 1 enumerates (cell pair, threshold) rows: 600 distinct values make
    # 600 thresholds, whose prefix sums over 600 cells (1200 on the circle's
    # two-period unrolling) are held at once, and rows are taken a chunk at a time
    k = np.arange(600)
    values = k % 2 + k * 1e-6
    f = StepFunction(Interval(0.0, 1.0), np.linspace(0.0, 1.0, 601), values)
    circ = StepFunction(CIRCLE, f.breakpoints, values)
    for search, target in ((bmo_norm, f), (circle_bmo_norm, circ)):
        r, peak = _traced_peak(lambda: search(target, 1.0))
        assert peak < 64 * 2**20
        assert r.lower == pytest.approx(0.5, rel=1e-3)
        assert abs(target.central_moment(r.witness, 1.0) - r.lower) <= 1e-15 * r.lower


def test_bmo1_of_the_step_at_three_quarters_is_one_half():
    # the supremum 1/2 is attained only at intervals with equal 0 and 1
    # mass; lower is its witness's value, and the certified upper a proof
    # (on the circle the upper also carries the long arcs' TV slack)
    r = bmo_norm(split_step(), 1.0, SearchConfig(certify=True))
    assert abs(r.lower - 0.5) <= 1e-12 and abs(r.upper - 0.5) <= 1e-12 and r.lower <= r.upper
    assert (r.witness.left, r.witness.right) == (0.5, 1.0)
    circ = StepFunction(CIRCLE, split_step().breakpoints, split_step().values)
    assert abs(circle_bmo_norm(circ, 1.0).lower - 0.5) <= 1e-12


def _golden_lanes():
    # brackets and values of 9 lanes: 7 unimodal with maxima of 1 (cusps
    # and smooth tops), a flat top, where only the tie rule picks the
    # probe, and a -inf part, like a clipped junction probe
    centers = np.linspace(-0.8, 0.9, 7)
    powers = np.linspace(0.5, 3.0, 7)
    lo = np.concatenate((centers - np.linspace(0.1, 1.3, 7), [0.0, 0.0]))
    hi = np.concatenate((centers + np.linspace(1.1, 0.2, 7), [1.0, 1.0]))

    def lane_value(k, x):
        if k == centers.size:
            return -max(abs(x - 0.4) - 0.3, 0.0)
        if k == centers.size + 1:
            return -math.inf if x < 0.5 else -((x - 0.55) ** 2)
        return 1.0 - abs(x - centers[k]) ** powers[k]

    def batched(lanes, probes):
        def f(xs):
            assert xs.ndim == 2 and xs.shape[0] == len(lanes)
            probes.append(xs.shape)
            return np.array([[lane_value(k, x) for x in row] for k, row in zip(lanes, xs.tolist())])

        return f

    return lo, hi, centers, lane_value, batched


def test_golden_lanes_are_independent():
    # for a given k, a batch of brackets returns, bitwise, what batches of
    # one return, and at k = 1 what the scalar golden-section reference returns
    lo, hi, _, lane_value, batched = _golden_lanes()
    for k in (1, 3, 7, 15):
        for iters in (1, 2, 3, 40):
            probes = []
            xs, vs = _golden_max(batched(range(lo.size), probes), lo, hi, iters, k)
            assert probes[0][1] == k + 1 and all(m == k for _, m in probes[1:])
            for lane in range(lo.size):
                x1, v1 = _golden_max(batched([lane], []), lo[lane : lane + 1], hi[lane : lane + 1], iters, k)
                assert x1[0].tobytes() == xs[lane].tobytes()
                assert v1[0].tobytes() == vs[lane].tobytes()
                if k == 1:
                    xr, vr = _scalar_golden_max(lambda x: lane_value(lane, x), float(lo[lane]), float(hi[lane]), iters)
                    assert xs[lane].tobytes() == np.float64(xr).tobytes()
                    assert vs[lane].tobytes() == np.float64(vr).tobytes()
            if k == 1:
                assert sum(m for _, m in probes) == max(iters, 2)
            assert vs[-1] > -math.inf


def test_block_golden_brackets_no_wider_and_maxima_no_lower():
    # on the lanes whose tops stay strict at float resolution (powers below
    # 2; flatter tops are plateaus of equal values, where ties pick the
    # probe), the best probe's nearest probed neighbours (or bracket ends)
    # are no farther apart than golden section's final bracket, up to the
    # rounding drift of 39 nested brackets; and on the lanes with smooth
    # tops the maximum found at the default resolution is at least golden
    # section's (one round of either may land anywhere, and at a cusp the
    # value follows the probe's exact place inside the bracket)
    lo, hi, centers, lane_value, batched = _golden_lanes()
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    powers = np.linspace(0.5, 3.0, 7)
    strict = [lane for lane in range(centers.size) if powers[lane] < 2.0]
    smooth = [lane for lane in range(centers.size) if powers[lane] > 1.0]
    assert len(strict) == 4 and len(smooth) == 5
    _, golden = _golden_max(batched(range(lo.size), []), lo, hi, 40, 1)
    for iters in (2, 12, 40):
        for k in (1, 3, 7, 15):
            seen = [[] for _ in range(lo.size)]

            def f(xs):
                for lane, row in enumerate(xs.tolist()):
                    seen[lane].extend(row)
                return np.array([[lane_value(lane, x) for x in row] for lane, row in enumerate(xs.tolist())])

            xs, vs = _golden_max(f, lo, hi, iters, k)
            for lane in strict:
                grid = np.unique([lo[lane], hi[lane], *seen[lane]])
                at = int(np.searchsorted(grid, xs[lane]))
                assert grid[at] == xs[lane]
                assert grid[at + 1] - grid[at - 1] <= invphi ** (iters - 1) * (hi[lane] - lo[lane]) * (1 + 1e-6), (k, iters, lane)
            if iters == 40:
                for lane in smooth:
                    assert vs[lane] >= golden[lane] - 1e-12 * abs(golden[lane]), (k, lane)


def test_sections_follow_the_lane_count():
    # wide rounds while the probes of all lanes fit one pass of rows; one
    # section, plain golden section, for the 2400 lanes of the transference check
    assert search_module._sections(1) == search_module._sections(136) == 15
    assert search_module._sections(137) == 13
    assert search_module._sections(1024) == 1
    assert search_module._sections(2400) == 1
    assert all(search_module._sections(n) % 2 == 1 for n in range(1, 3000, 7))


class _RecordingBest(_Best):
    def __init__(self):
        super().__init__()
        self.offers = []

    def offer(self, value, left, right):
        self.offers.append((float(value).hex(), float(left).hex(), float(right).hex()))
        super().offer(value, left, right)


_OFFER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, math.inf, -math.inf]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e-9, max_value=1e-9, allow_nan=False),
)


@st.composite
def _tied_offers(draw):
    # (value, left, right) offers on a coarse grid of ends, so that (left,
    # length) ties occur; a nudge copies the previous value moved by up to
    # 8e-13 relative, a tie within the 1e-12 window on either side
    drawn = draw(st.lists(st.tuples(_OFFER_VALUES, st.integers(0, 4), st.integers(-3, 3), st.integers(0, 2)), min_size=1, max_size=40))
    offers = []
    for v, nudge, left, width in drawn:
        if offers and nudge and math.isfinite(offers[-1][0]):
            v = offers[-1][0] * (1.0 + (nudge - 2) * 4e-13)
        offers.append((v, 0.125 * left, 0.125 * left + 0.25 + 0.0625 * width))
    return offers


def _witness_by_brute_force(offers):
    # the maximum, then the offer first in (left, length) order among those
    # within 1e-12 of it relative (the maximum itself at ±inf), exact ties
    # to the larger value, then the larger right end; -0.0 counts as 0.0
    top = max(v for v, _, _ in offers) + 0.0
    window = top if math.isinf(top) else top - 1e-12 * abs(top)
    ties = [(v + 0.0, l, r) for v, l, r in offers if v >= window]
    v, l, r = min(ties, key=lambda o: (o[1], o[2] - o[1], -o[0], -o[2]))
    return top, (l, r, v)


@settings(max_examples=200, deadline=None)
@given(_tied_offers(), st.integers(0, 2**32 - 1))
# values 1, 1 + 4e-13 and 1 + 1.2e-12: the second lies in the final window, the first does not
@example([(1.0, 0.0, 0.25), (1.0 + 4e-13, 1.0, 1.25), (1.0 + 1.2e-12, 2.0, 2.25)], 0)
def test_witness_depends_on_the_set_of_offers_alone(offers, seed):
    # in their drawn order one by one, then in shuffled orders split at
    # random between offer and offer_array batches, the value and witness
    # are bitwise those of the brute-force rule
    top, witness = _witness_by_brute_force(offers)
    rng = random.Random(seed)
    for trial in range(4):
        best, batch = _Best(), []
        for v, l, r in offers if trial == 0 else rng.sample(offers, len(offers)):
            how = "offer" if trial == 0 else rng.choice(("offer", "batch", "flush"))
            if how == "offer":
                best.offer(v, l, r)
                continue
            if how == "flush":
                best.offer_array(*(np.array(col, dtype=float) for col in zip(*batch)) if batch else (np.empty(0),) * 3)
                batch = []
            batch.append((v, l, r))
        if batch:
            best.offer_array(*(np.array(col, dtype=float) for col in zip(*batch)))
        assert best.value.hex() == top.hex(), trial
        assert [x.hex() for x in best.finish()] == [x.hex() for x in witness], trial


def _reference_junction_scan(engine, node, c, scale_lo, scale_hi, best, clip, k):
    # one junction at a time, one arc per query: the offers the lockstep
    # scan, refining with k sections per round, must make
    cfg = engine.cfg

    def arcs(ts, ells, offer):
        ls, rs = c - ts * ells, c + (1.0 - ts) * ells
        if clip is not None:
            ls, rs = np.maximum(ls, clip[0]), np.minimum(rs, clip[1])
        vs = np.full(ls.shape, -math.inf)
        for at, (l, r) in enumerate(zip(ls.ravel().tolist(), rs.ravel().tolist())):
            if r - l > 1e-15:
                vs.flat[at] = v = engine.objective.value_from_raw(engine.raws([(node, np.array([l]), np.array([r]))]))[0]
                if offer:
                    best.offer(v, l, r)
        return ls, rs, vs

    lengths = _geom_lengths(max(scale_lo, 1e-13), scale_hi)
    offsets = np.arange(1, 2**search_module._GRID_LEVEL) / 2.0**search_module._GRID_LEVEL
    ls, rs, vs = arcs(np.tile(offsets, lengths.size), np.repeat(lengths, offsets.size), True)
    top = [k for k in np.argsort(-vs, kind="stable")[:4] if vs[k] > -math.inf]
    ell0 = (rs[top] - ls[top]).tolist()
    t0 = np.array([min(max((c - l) / e, 0.0), 1.0) for l, e in zip(ls[top].tolist(), ell0)])
    x0 = [math.log(e) for e in ell0]
    log_lo, log_hi = math.log(max(scale_lo, 1e-13)), math.log(scale_hi)

    def exps(xs):
        return np.array([math.exp(x) for x in xs.ravel().tolist()]).reshape(xs.shape)

    lo, hi = [max(x - 2.0, log_lo) for x in x0], [min(x + 2.0, log_hi) for x in x0]
    lx, _ = _golden_max(lambda xs: arcs(t0[:, None], exps(xs), False)[2], lo, hi, cfg.refine_iters, k)
    ell1 = exps(lx)
    tt, _ = _golden_max(lambda ts: arcs(ts, ell1[:, None], False)[2], np.zeros(len(top)), np.ones(len(top)), cfg.refine_iters, k)
    arcs(tt, ell1, True)


def _dag_leaves():
    f = StepFunction(Interval(0.0, 1.0), [0.0, 0.3, 0.7, 1.0], [0.0, 2.0, -1.0])
    g = StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [1.0, -0.5])
    return leaf(f), leaf(g)


def test_junction_scan_offers_what_a_junction_at_a_time_scan_offers():
    # the junction scans of both nodes at once, one grid query, one query
    # per golden round and one final query, must offer for each node,
    # bitwise and in any order, what one junction at a time with one arc per
    # query offers, refining with the lockstep's sections per round; the
    # circle node's long-arc grid must equal that grid queried alone
    f, g = _dag_leaves()
    nodes = [glue(homogenize(f, 0.95), g, 0.4, 0.95), homogenize(homogenize(f, 0.9), 0.95)]
    cfg = SearchConfig(refine_iters=12)
    # at most 4 lanes per junction: 7 junctions refine with 15 sections per round
    k = search_module._sections(4 * sum(len(_layout(node)[2]) for node in nodes))
    assert k == 15
    for p in (1.0, 2.0):
        lockstep, reference = _DagSearch(_BmoObjective(p), cfg), _DagSearch(_BmoObjective(p), cfg)
        scans = lockstep._lockstep_scans(nodes)
        for node in nodes:
            full, _, junctions = _layout(node)
            clip, scale_hi = (None, 2.0) if node.is_circle else (full, full[1] - full[0])
            got, want = _RecordingBest(), _RecordingBest()
            offers, long_raws = scans[id(node)]
            for v, l, r in zip(*(a.tolist() for a in offers)):
                got.offer(v, l, r)
            for c, scale_lo in junctions:
                _reference_junction_scan(reference, node, c, scale_lo, scale_hi, want, clip, k)
            assert len(want.offers) > 100
            assert sorted(got.offers) == sorted(want.offers), (node, p)
            if node.is_circle:
                assert long_raws.tobytes() == reference.raws([(node, *_long_arc_grid(0.0, cfg))]).tobytes()
            else:
                assert long_raws is None
        assert lockstep.evaluations == reference.evaluations
        assert lockstep.raw_max == reference.raw_max


def test_dag_circle_report_keeps_evaluation_count():
    # the count of a junction-at-a-time scan with one query per arc,
    # refining with 15 sections per round; at p = 3 the leaves' flat
    # searches take jumps in closed form and ascend by Newton, at p = 1
    # and 2 they enumerate (cell pair, threshold) rows and cell pairs, so
    # only their share of the count moves
    f, g = _dag_leaves()
    e = periodize(glue(homogenize(f, 0.95), g, 0.4, 0.95))
    cfg = SearchConfig(refine_iters=24, certify=True)
    leaves = {p: sum(bmo_norm(node.function, p, cfg).evaluations for node in (f, g)) for p in (1.0, 2.0, 3.0)}
    assert circle_bmo_norm(e, 3.0, cfg).evaluations == 15932
    assert circle_bmo_norm(e, 1.0, cfg).evaluations == 15702
    assert circle_bmo_norm(e, 2.0, cfg).evaluations - leaves[2.0] == 15702 - leaves[1.0] == 15932 - leaves[3.0]
    assert leaves[2.0] < leaves[1.0] < leaves[3.0]


def test_martingale_circle_dag_report_is_pinned():
    # a compiled depth-3 log-staircase: 8 of its 13 nodes hold one atom
    # (constants, their homogenizations), and the search gives each the
    # value of its distribution without scanning it; lower, upper and
    # witness are those of a search that scans every node with children
    _, tree = log_staircase(math.exp(0.3 / 5.0), 3)
    e = compile_to_circle(tree, (0.9, 20))
    assert (len(e.nodes), sum(node.atom_values.size == 1 for node in e.nodes)) == (13, 8)
    for p, upper in ((1.0, "0x1.7f95847767bd9p-4"), (2.0, "0x1.b1a341f8d12aep-4")):
        r = circle_bmo_norm(e, p, SearchConfig(certify=True))
        assert (r.lower.hex(), r.upper.hex()) == ("0x1.33d07a1a49c46p-4", upper)
        assert (r.witness.left.hex(), r.witness.right.hex()) == ("0x1.fea60c033b555p-1", "0x1.00acf9fe62556p+0")
        # 43362 when the one-atom nodes were scanned too
        assert r.evaluations == 20194


def test_martingale_circle_dag_query_counts_are_pinned(monkeypatch):
    # the DAG of test_martingale_circle_dag_report_is_pinned: the junction
    # grid and every golden round are one call each into the masses-only
    # query core; only embedded child witnesses are single queries, as a
    # node's full carrier or base period takes its node distribution
    _, tree = log_staircase(math.exp(0.3 / 5.0), 3)
    e = compile_to_circle(tree, (0.9, 20))
    calls = {"core": 0, "rounds": 0, "single": []}
    core, single, golden = search_module._query_masses, search_module.dag_query, search_module._golden_max

    def counted_core(requests, *args):
        calls["core"] += 1
        return core(requests, *args)

    def counted_single(node, q, *args):
        calls["single"].append((node, tuple(q)))
        return single(node, q, *args)

    def counted_golden(f, *args, **kwargs):
        def round_(xs):
            calls["rounds"] += 1
            return f(xs)

        return golden(round_, *args, **kwargs)

    monkeypatch.setattr(search_module, "_query_masses", counted_core)
    monkeypatch.setattr(search_module, "dag_query", counted_single)
    monkeypatch.setattr(search_module, "_golden_max", counted_golden)
    for p in (1.0, 2.0):
        calls.update(core=0, rounds=0, single=[])
        circle_bmo_norm(e, p, SearchConfig(certify=True))
        # two phases of 9 rounds, and the grid
        assert calls["rounds"] == 18
        assert calls["core"] == 2 * 9 + 1
        # 12 when full arcs were single queries too
        assert len(calls["single"]) == 7
        assert all(q != node.content_bounds() for node, q in calls["single"])


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


def test_constant_weights_are_never_below_one():
    # each of these read 0.9999999999999999 or 0.9999999999999998 before
    # the weight objectives were floored at 1
    one = Interval(0.0, 1.0)
    assert a_inf_constant(StepFunction(one, [0.0, 1.0], [2.5]), CFG).lower == 1.0
    assert ap_constant(StepFunction(one, [0.0, 1.0], [7.3]), 2.0, CFG).lower == 1.0
    circle = periodize(homogenize(constant(0.1), 0.999))
    assert a_inf_constant(circle, CFG).lower == 1.0
    assert ap_constant(circle, 2.0, CFG).lower == 1.0


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
        SearchConfig(r_long=0)
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
