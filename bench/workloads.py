"""Seeded inputs and op lists of the two benchmark workloads.

A workload function takes the imported ``meanosc`` package and a seed,
generates its inputs from the seed alone, builds every target (this is
the set-up the benchmark times as ``setup_s``), and returns the ops one
closed-loop caller runs in order, cycling; every op list is short enough
to run at least five times in a 55 s run.  The search work of an op
depends on the input's size, which is fixed, and hardly on the values
the seed draws.  Each op is one public call;
its ``check`` verifies the result through another public path (see
``oracle``), and its ``spec`` records the generated inputs as plain data.

The library is always reached through module attributes at call time
(``m.search.bmo_norm``, not a name bound at import), so the traced run's
wrappers see every call.  Searches set only ``threads`` and ``certify`` on
``SearchConfig``; the other knobs are left at their defaults because the
roadmap deletes them, and ``certify`` is the one knob the benchmark would
have to drop once brackets are always on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

# Searches materialize targets of at most 600 pieces and search them flat.
# Random DAG targets must stay on the DAG path: a 3-piece leaf homogenized
# with ratio 0.7-0.9 and glued to a 2-piece leaf realizes thousands.
DAG_MIN_PIECES = 2000
FLAT_MAX_PIECES = 600


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]  # the one timed public call
    check: Callable[[object], float]  # raises oracle.OracleError on a wrong result
    spec: dict  # the generated inputs, as plain data


KIND_SPAN = 8


def _kinds(ops) -> tuple:
    return tuple(dict.fromkeys(op.kind for op in ops))


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple  # distinct op kinds; the first KIND_SPAN ops cover all of them
    ops: list


# -- input generators (plain data) -----------------------------------------------------


# Sizes are fixed by each workload and only values are drawn from the
# seed, so that two seeds cost the same to within timing noise.


def _step_params(rng, n: int) -> dict:
    """A random step function on [0, 1] with n pieces, standard normal values."""
    cuts = np.sort(rng.uniform(0.05, 0.95, size=n - 1))
    return {
        "breakpoints": [0.0, *map(float, cuts), 1.0],
        "values": [float(v) for v in rng.normal(size=n)],
    }


def _dag_params(rng) -> dict:
    """Random glue/homogenize DAG in the shape of the gluing acceptance criterion."""
    return {
        "leaf0": _step_params(rng, 3),
        "leaf1": _step_params(rng, 2),
        "lam": float(rng.uniform(0.7, 0.9)),
        "alpha": float(rng.uniform(0.05, 0.95)),
    }


def _staircase_params(rng, n: int) -> dict:
    """Peeling-martingale input: ratio exp(delta/5), depth n, lam_hom near 1."""
    lam_hom = float(rng.uniform(0.999, 0.9995))
    return {
        "delta": float(rng.uniform(0.25, 0.35)),
        "depth": n,
        "lam_hom": lam_hom,
        "levels": max(1, math.ceil(math.log(1e-3) / math.log(lam_hom))),
    }


# -- targets (library calls; timed as set-up) ------------------------------------------


def _step(m, params):
    sf = m.stepfun
    return sf.StepFunction(sf.Interval(0.0, 1.0), params["breakpoints"], params["values"])


def _dag(m, params):
    """Periodize a homogenized leaf glued to a leaf."""
    c = m.construct
    e0 = c.leaf(_step(m, params["leaf0"]))
    e1 = c.leaf(_step(m, params["leaf1"]))
    return c.periodize(c.glue(c.homogenize(e0, params["lam"]), e1, params["alpha"], params["lam"]))


def _random_dag(m, rng):
    params = _dag_params(rng)
    expr = _dag(m, params)
    if m.construct.required_pieces(expr) < DAG_MIN_PIECES:
        raise RuntimeError(f"generated DAG would be searched flat: {params}")
    return params, expr


def _compiled_staircase(m, params):
    """Validate and compile a log-staircase peeling martingale (as ``verify_jn`` does)."""
    mg = m.martingales
    delta = params["delta"]
    _, tree = mg.log_staircase(math.exp(delta / 5.0), params["depth"])
    report = mg.validate_membership(tree, mg.MomentDomain(1.0, 2.0 / math.e + delta))
    if not report.passed:
        raise RuntimeError(f"generated martingale fails validation: {params}")
    return mg.compile_to_circle(tree, (params["lam_hom"], params["levels"]))


# -- ops --------------------------------------------------------------------------------


def _search_op(m, kind, fn, target, p, cfg, reproduce, spec) -> Op:
    search = m.search
    if p is None:
        def run():
            return getattr(search, fn)(target, cfg)
    else:
        def run():
            return getattr(search, fn)(target, p, cfg)
    return Op(kind, run, lambda report: oracle.check_report(report, reproduce), spec)


def _flat_bmo(f, p):
    return lambda q: f.central_moment(q, p) ** (1.0 / p)


def _dag_bmo(m, expr, p):
    return lambda q: m.construct.query(expr, q).distribution.central_moment(p) ** (1.0 / p)


def _circle_op(m, rng) -> Op:
    """``circle_bmo_norm`` at p=2 on a small homogenized-leaf circle, searched flat with two threads.

    The target realizes fewer than 60 pieces, so the search materializes it
    and runs the flat circle search: the flat side of the flat-vs-DAG switch.
    At p=1 the search takes twice as long as any other op of the workload,
    and one op kind that slow would put the tail on the edge of its cluster.
    """
    c = m.construct
    cfg = m.search.SearchConfig(threads=2, certify=True)
    leaf = _step_params(rng, 4)
    lam_hom = float(rng.uniform(0.6, 0.8))
    circle = c.periodize(c.homogenize(c.leaf(_step(m, leaf)), lam_hom, 5))
    if c.required_pieces(circle) > FLAT_MAX_PIECES:
        raise RuntimeError(f"generated circle would be searched as a DAG: {leaf}, {lam_hom}")
    spec = {"leaf": leaf, "lam_hom": lam_hom, "levels": 5, "p": 2.0}
    return _search_op(m, "circle_bmo_norm/hom_leaf/p=2", "circle_bmo_norm", circle, 2.0, cfg, _dag_bmo(m, circle, 2.0), spec)


def flat_small(m, seed: int) -> Workload:
    """Random 2-8 piece functions: every bmo order, A_2 and A_inf of exp(f); small circles."""
    rng = np.random.default_rng(seed)
    cfg = m.search.SearchConfig(threads=1, certify=True)
    ops = []
    for n in (2, 5, 8):
        params = _step_params(rng, n)
        f = _step(m, params)
        w = m.stepfun.StepFunction(f.domain, f.breakpoints, np.exp(f.values))
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            ops.append(_search_op(m, f"bmo_norm/flat/p={p:g}", "bmo_norm", f, p, cfg, _flat_bmo(f, p), {"f": params, "p": p}))
        ops.append(_search_op(
            m, "ap_constant/exp_flat/p=2", "ap_constant", w, 2.0, cfg,
            lambda q, w=w: w.distribution(q).ap_form(2.0), {"f": params, "p": 2.0},
        ))
        ops.append(_search_op(
            m, "a_inf_constant/exp_flat", "a_inf_constant", w, None, cfg,
            lambda q, w=w: w.distribution(q).geometric_form(), {"f": params},
        ))
        if n != 5:
            ops.append(_circle_op(m, rng))
    return Workload("flat_small", _kinds(ops), ops)


def dag_search(m, seed: int) -> Workload:
    """Certified circle searches on a compiled staircase martingale and periodized random DAGs.

    Every op takes about a second, so the median and the tail both fall
    among searches of the same kind of target, never between two kinds.
    """
    rng = np.random.default_rng(seed)
    cfg = m.search.SearchConfig(threads=1, certify=True)
    # depth 3 keeps one search near a second
    stair = _staircase_params(rng, 3)
    stair_expr = _compiled_staircase(m, stair)
    dags = [_random_dag(m, rng) for _ in range(2)]
    ops = []
    for p in (1.0, 2.0):
        ops.append(_search_op(m, f"circle_bmo_norm/staircase_martingale/p={p:g}", "circle_bmo_norm", stair_expr, p, cfg, _dag_bmo(m, stair_expr, p), {**stair, "p": p}))
        for params, expr in dags:
            ops.append(_search_op(m, f"circle_bmo_norm/random_dag/p={p:g}", "circle_bmo_norm", expr, p, cfg, _dag_bmo(m, expr, p), {**params, "p": p}))
    return Workload("dag_search", _kinds(ops), ops)


WORKLOADS = {
    "flat_small": flat_small,
    "dag_search": dag_search,
}
