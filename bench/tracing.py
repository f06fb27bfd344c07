"""In-memory spans around the public functions of each meanosc layer.

The benchmark's traced run wraps the functions where the library binds
them (``meanosc.search.dag_query`` is the name the search engine calls,
``meanosc.construct.query`` the one a user calls), records one span per
call with its parent span and the benchmark op it ran under, and restores
every wrapped attribute when the run ends.  Nothing in the library is
edited; spans inside the library are out of scope here.
"""
from __future__ import annotations

import itertools
import statistics
import threading
import time
from typing import NamedTuple

SETUP = -1  # op id of spans recorded while the workload is set up


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root span
    op_id: int | None  # index of the timed op, SETUP, or None outside both
    name: str
    start: float  # perf_counter seconds
    dur: float  # seconds
    self_dur: float  # dur minus the time covered by child spans
    cpu: float  # process CPU seconds, all threads; 0 where not sampled
    extra: tuple = ()


def _search_extra(report):
    if hasattr(report, "evaluations"):
        return (report.evaluations, report.lower, report.upper)
    return ()


def _query_extra(result):
    return (result.nodes_visited, result.depth)


def wrap_targets(m):
    """(owner, attribute, span name, extra hook, sample cpu) for every wrapped call.

    ``m`` is the imported ``meanosc`` package.  Module-level functions are
    wrapped in every module that binds them under its own name, because
    the library calls them through those bindings.
    """
    search, construct, martingales = m.search, m.construct, m.martingales
    dist_cls = m.distributions.DiscreteDistribution
    step_cls = m.stepfun.StepFunction
    targets = []
    for fn in ("bmo_norm", "circle_bmo_norm", "ap_constant", "a_inf_constant", "exp_integral"):
        targets.append((search, fn, f"search.{fn}", _search_extra, True))
    targets.append((search, "dag_query", "construct.query", _query_extra, False))
    targets.append((construct, "query", "construct.query", _query_extra, False))
    targets.append((search, "materialize", "construct.materialize", None, False))
    targets.append((construct, "materialize", "construct.materialize", None, False))
    for fn in ("leaf", "constant", "homogenize", "glue", "periodize"):
        targets.append((construct, fn, f"construct.build.{fn}", None, False))
    for fn in ("constant", "glue", "periodize"):
        targets.append((martingales, fn, f"construct.build.{fn}", None, False))
    targets.append((dist_cls, "__init__", "distributions.init", None, False))
    for fn in ("central_moment", "ap_form", "geometric_form", "exp_integral"):
        targets.append((dist_cls, fn, f"distributions.functional.{fn}", None, False))
    targets.append((m.distributions, "dist_mix", "distributions.dist_mix", None, False))
    targets.append((martingales, "dist_mix", "distributions.dist_mix", None, False))
    for fn in ("distribution", "overlaps", "restrict"):
        targets.append((step_cls, fn, f"stepfun.{fn}", None, False))
    for fn in ("validate_membership", "compile_to_circle"):
        targets.append((martingales, fn, f"martingales.{fn}", None, False))
    return targets


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch and restore."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, extra_hook, sample_cpu):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]  # [id, time covered by children]
            stack.append(frame)
            cpu0 = time.process_time() if sample_cpu else 0.0
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu = time.process_time() - cpu0 if sample_cpu else 0.0
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                extra = extra_hook(result) if extra_hook is not None and result is not None else ()
                tracer.spans.append(
                    Span(span_id, parent, tracer.op_id, name, t0, dur, dur - frame[1], cpu, extra)
                )

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook, cpu in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook, cpu))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_tsv(self, path, origin: float):
        """Write every span, one line each; times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span_id\tparent_id\top_id\tname\tstart_s\tdur_us\tself_us\tcpu_us\n")
            for s in self.spans:
                op = "" if s.op_id is None else ("setup" if s.op_id == SETUP else s.op_id)
                out.write(
                    f"{s.span_id}\t{s.parent_id}\t{op}\t{s.name}\t{s.start - origin:.6f}"
                    f"\t{s.dur * 1e6:.2f}\t{s.self_dur * 1e6:.2f}\t{s.cpu * 1e6:.1f}\n"
                )


# -- per-layer metrics --------------------------------------------------------------

# (name, unit) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = [
    ("search.calls", "count"),
    ("search.evals_per_call", "count"),
    ("search.us_per_eval", "us"),
    ("search.self_ms_p50", "ms"),
    ("search.cpu_per_wall", "ratio"),
    ("search.bracket_gap_rel", "ratio"),
    ("construct.query.calls_per_op", "count"),
    ("construct.query.us_p50", "us"),
    ("construct.query.self_share", "ratio"),
    ("construct.query.nodes_visited_mean", "count"),
    ("construct.query.depth_max", "count"),
    ("construct.materialize.calls_per_op", "count"),
    ("construct.materialize.ms_p50", "ms"),
    ("construct.build.ms", "ms"),
    ("distributions.init.calls_per_op", "count"),
    ("distributions.init.calls_per_setup", "count"),
    ("distributions.init.us_p50", "us"),
    ("distributions.functional.calls_per_op", "count"),
    ("distributions.functional.us_p50", "us"),
    ("distributions.dist_mix.calls_per_op", "count"),
    ("distributions.dist_mix.calls_per_setup", "count"),
    ("distributions.dist_mix.us_p50", "us"),
    ("stepfun.distribution.calls_per_op", "count"),
    ("stepfun.distribution.us_p50", "us"),
    ("stepfun.overlaps.calls_per_op", "count"),
    ("stepfun.overlaps.us_p50", "us"),
    ("stepfun.restrict.ms_p50", "ms"),
    ("martingales.validate_membership.ms", "ms"),
    ("martingales.compile_to_circle.ms", "ms"),
    ("trace_overhead_frac", "ratio"),
]


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(spans, n_ops: int, op_seconds: float, overhead_frac: float) -> dict:
    """Per-layer figures from one traced setup plus one traced timed loop.

    ``*.calls_per_op`` counts calls made inside timed ops, divided by the
    ops completed; ``*.calls_per_setup`` counts calls made while setting
    up.  Per-call latencies (``us_p50``/``ms_p50``) cover every traced
    call, set-up included, so a layer used only in set-up still reports
    its cost.  A layer the workload never calls reports 0.
    """
    def named(prefix):
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def in_ops(ss):
        return [s for s in ss if s.op_id is not None and s.op_id >= 0]

    def in_setup(ss):
        return [s for s in ss if s.op_id == SETUP]

    def per_op(ss):
        return len(in_ops(ss)) / n_ops if n_ops else 0.0

    by_id = {s.span_id: s for s in spans}

    def outermost(ss, prefix):
        # spans of a group with no ancestor in the same group
        out = []
        for s in ss:
            p = by_id.get(s.parent_id)
            while p is not None and not p.name.startswith(prefix):
                p = by_id.get(p.parent_id)
            if p is None:
                out.append(s)
        return out

    out = {}
    search = in_ops(named("search"))
    reports = [s for s in search if s.extra]
    evals = sum(s.extra[0] for s in reports)
    wall = sum(s.dur for s in search)
    gaps = [
        (s.extra[2] - s.extra[1]) / s.extra[2]
        for s in reports
        if s.extra[2] is not None and s.extra[2] != 0
    ]
    out["search.calls"] = len(search)
    out["search.evals_per_call"] = evals / len(reports) if reports else 0.0
    out["search.us_per_eval"] = sum(s.dur for s in reports) / evals * 1e6 if evals else 0.0
    out["search.self_ms_p50"] = _median([s.self_dur for s in search]) * 1e3
    out["search.cpu_per_wall"] = sum(s.cpu for s in search) / wall if wall else 0.0
    out["search.bracket_gap_rel"] = _median(gaps)

    query = named("construct.query")
    qops = in_ops(query)
    out["construct.query.calls_per_op"] = per_op(query)
    out["construct.query.us_p50"] = _median([s.dur for s in query]) * 1e6
    out["construct.query.self_share"] = sum(s.self_dur for s in qops) / op_seconds if op_seconds else 0.0
    out["construct.query.nodes_visited_mean"] = (
        sum(s.extra[0] for s in qops if s.extra) / len(qops) if qops else 0.0
    )
    out["construct.query.depth_max"] = max((s.extra[1] for s in qops if s.extra), default=0)
    mat = named("construct.materialize")
    out["construct.materialize.calls_per_op"] = per_op(mat)
    out["construct.materialize.ms_p50"] = _median([s.dur for s in mat]) * 1e3
    build = outermost(in_setup(named("construct.build")), "construct.build")
    out["construct.build.ms"] = sum(s.dur for s in build) * 1e3

    init = named("distributions.init")
    out["distributions.init.calls_per_op"] = per_op(init)
    out["distributions.init.calls_per_setup"] = len(in_setup(init))
    out["distributions.init.us_p50"] = _median([s.dur for s in init]) * 1e6
    func = named("distributions.functional")
    out["distributions.functional.calls_per_op"] = per_op(func)
    out["distributions.functional.us_p50"] = _median([s.dur for s in func]) * 1e6
    mix = named("distributions.dist_mix")
    out["distributions.dist_mix.calls_per_op"] = per_op(mix)
    out["distributions.dist_mix.calls_per_setup"] = len(in_setup(mix))
    out["distributions.dist_mix.us_p50"] = _median([s.dur for s in mix]) * 1e6

    for fn in ("distribution", "overlaps"):
        ss = named(f"stepfun.{fn}")
        out[f"stepfun.{fn}.calls_per_op"] = per_op(ss)
        out[f"stepfun.{fn}.us_p50"] = _median([s.dur for s in ss]) * 1e6
    out["stepfun.restrict.ms_p50"] = _median([s.dur for s in named("stepfun.restrict")]) * 1e3

    for fn in ("validate_membership", "compile_to_circle"):
        out[f"martingales.{fn}.ms"] = sum(s.dur for s in in_setup(named(f"martingales.{fn}"))) * 1e3
    out["trace_overhead_frac"] = overhead_frac
    return out
