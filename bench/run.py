"""meanosc benchmark: one closed-loop caller per workload, in one process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload flat_small --seed 1 --seconds 55 --trace 0

The run imports ``meanosc`` from ``src/`` of the checkout, builds the
workload's seeded inputs several times before and after the timed loop
(reporting the median as ``setup_s``), checks the fixed anchor inputs,
then calls the library
in a closed loop for ``--seconds`` seconds, cycling through the workload's
ops, and checks every result (see ``oracle``).  Latencies are wall-clock
times of single calls, and their median and tail are taken over every
call of the run.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the run sets
up once under the tracer, spends half of ``--seconds`` untraced and half
traced, and reports the per-layer metrics instead.  A human-readable
summary precedes the JSON line; the full record, and with ``--trace 1``
every span, are written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# set up at least 3 times, and up to 20 times until 1 s has been spent, both
# before and after the timed loop, so that the median spans the run
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 20, 1.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def fresh_import():
    """Import meanosc anew, so every set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "meanosc" or n.startswith("meanosc.")]:
        del sys.modules[name]
    return importlib.import_module("meanosc")


def result_key(report):
    """What two search reports of the same op must share to count as the same result."""
    w = report.witness
    return (report.lower, report.upper, w.left, w.right, report.evaluations)


class Loop:
    """Outcome of one timed closed loop: latencies and distinct results per op."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall = 0.0
        self.errors: list[str] = []  # ops that raised
        self.results: dict = {}  # (op index, result key) -> [result, count]

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall


def run_loop(ops, seconds: float, tracer=None) -> Loop:
    """Call ops in order, cycling, until ``seconds`` have passed (at least one op)."""
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(ops)
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = ops[k].run()
        except Exception as exc:  # a raising op is a failed op, never dropped
            result = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op_id = None
        loop.latencies.append(t1 - t0)
        if isinstance(result, Exception):
            loop.errors.append(f"{ops[k].kind}: {type(result).__name__}: {result}")
        else:
            slot = loop.results.setdefault((k, result_key(result)), [result, 0])
            slot[1] += 1
        i += 1
    loop.wall = time.perf_counter() - start
    return loop


def check_loop(ops, loop: Loop, failures: list[str]) -> tuple[int, float]:
    """Check every distinct result of the loop; return (failed ops, worst error)."""
    failed = len(loop.errors)
    failures.extend(loop.errors)
    worst = 0.0
    for (k, _), (result, count) in loop.results.items():
        try:
            worst = max(worst, ops[k].check(result))
        except Exception as exc:
            failed += count
            failures.append(f"{ops[k].kind}: {type(exc).__name__}: {exc}")
    return failed, worst


def run_anchors(m, oracle, failures: list[str]) -> tuple[int, int]:
    failed = 0
    anchors = oracle.anchors(m)
    for name, call, expected, tol in anchors:
        try:
            oracle.check_anchor(call(), expected, tol)
        except Exception as exc:
            failed += 1
            failures.append(f"anchor {name}: {type(exc).__name__}: {exc}")
    return len(anchors), failed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) of the tail latency.

    The highest percentile with at least TAIL_BEYOND samples beyond it;
    with too few samples it is the maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


# -- run metadata ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metadata(args, numpy) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# -- runs --------------------------------------------------------------------------------


def set_up(build, seed: int):
    """Import and build repeatedly; return (set-up seconds of each, package, workload)."""
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        m = fresh_import()
        wl = build(m, seed)
        setups.append(time.perf_counter() - t0)
    return setups, m, wl


def untraced_run(args, build, oracle, record) -> dict:
    setups, m, wl = set_up(build, args.seed)
    failures = record["failures"]
    attempted, failed = run_anchors(m, oracle, failures)
    loop = run_loop(wl.ops, args.seconds)
    bad, worst = check_loop(wl.ops, loop, failures)
    setups += set_up(build, args.seed)[0]
    n_ops = len(wl.ops)
    lat_ms = [x * 1e3 for x in loop.latencies]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    record["passes"] = loop.ops / n_ops
    record["setup_runs_s"] = setups
    by_kind: dict = {}
    for i, x in enumerate(lat_ms):
        by_kind.setdefault(wl.ops[i % n_ops].kind, []).append(x)
    record["kind_p50_ms"] = {kind: statistics.median(xs) for kind, xs in sorted(by_kind.items())}
    record["tail"] = {"percentile": tail_pct, "samples_beyond": beyond, "samples": loop.ops}
    record["oracle_worst_error"] = worst
    record["attempted"] = attempted + loop.ops
    record["failed"] = failed + bad
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": loop.ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, build, oracle, tracing, record) -> dict:
    m = fresh_import()
    tracer = tracing.Tracer(tracing.wrap_targets(m))
    origin = time.perf_counter()
    tracer.op_id = tracing.SETUP
    with tracer:
        wl = build(m, args.seed)
    tracer.op_id = None
    failures = record["failures"]
    attempted, failed = run_anchors(m, oracle, failures)
    plain = run_loop(wl.ops, args.seconds / 2.0)
    with tracer:
        traced = run_loop(wl.ops, args.seconds / 2.0, tracer)
    worst = 0.0
    for loop in (plain, traced):
        bad, err = check_loop(wl.ops, loop, failures)
        failed += bad
        attempted += loop.ops
        worst = max(worst, err)
    # compare throughput over the ops both loops ran (both start at op 0)
    n = min(plain.ops, traced.ops)
    plain_rate = n / sum(plain.latencies[:n])
    traced_rate = n / sum(traced.latencies[:n])
    overhead = (traced_rate - plain_rate) / plain_rate
    record["attempted"] = attempted
    record["failed"] = failed
    record["oracle_worst_error"] = worst
    record["loops"] = {
        "untraced": {"ops": plain.ops, "ops_per_s": plain.ops_per_s},
        "traced": {"ops": traced.ops, "ops_per_s": traced.ops_per_s},
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-spans.tsv"
    tracer.write_tsv(spans_path, origin)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["spans"] = len(tracer.spans)
    return tracing.layer_metrics(tracer.spans, traced.ops, sum(traced.latencies), overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "meanosc" / "__init__.py").is_file():
        print(f"meanosc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("--seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    record = {"metadata": metadata(args, numpy), "failures": []}
    if args.trace:
        values = traced_run(args, build, oracle, tracing, record)
        units = dict(tracing.LAYER_METRICS)
    else:
        values = untraced_run(args, build, oracle, record)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))

    attempted, failed = record["attempted"], record["failed"]
    for key, value in record["metadata"].items():
        print(f"{key:16s} {value}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_ops_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if "tail" in record:
        t = record["tail"]
        print(f"op_tail_ms is p{t['percentile']:.2f} of {t['samples']} ops ({t['samples_beyond']} beyond)")
    for line in record["failures"][:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
