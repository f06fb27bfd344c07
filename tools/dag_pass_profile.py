"""Profile the construction-DAG query passes of certified circle searches.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tools/dag_pass_profile.py [--delta D] [--depth N] [--p P[,P]] [--lam-hom L] [--repeat K]
    PYTHONPATH=src python3 tools/dag_pass_profile.py --bench-seed S [--repeat K]

By default the script compiles the peeling martingale of the logarithmic
staircase with ratio ``exp(D/5)`` and depth N to a circle, as
``verify_jn`` does (``lam_hom`` L, its default truncation level), and runs
one ``circle_bmo_norm`` per order P with ``verify_jn``'s certified
configuration.  With ``--bench-seed S`` it runs the six searches of the
benchmark's ``dag_search`` workload at seed S instead.

The search's queries come in two kinds: *batched* calls of
``_DagSearch.raws`` (the junction grid, the golden rounds), and *single*
``construct.query`` calls (embedded child witnesses).  A call runs one
topological pass over the DAG (``construct._pass``) per chunk of its
rows.  Per search and kind the script prints the number of calls and of
passes, the node runs per pass, the ranges per node run, and the µs per
call (with the chunk loop and the raw values), per pass and per node
run.  A search runs K times; counts are those of one run, and times the
least total over the K runs, divided by the count.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import meanosc
from meanosc import construct, search
from meanosc.martingales import compile_to_circle, log_staircase


class _Profile:
    """Wraps the DAG search's batched queries, its single queries and every pass, tallying each by kind."""

    def __init__(self):
        self.kind = None
        self.calls: list = []  # (kind, seconds)
        self.passes: list = []  # (kind, seconds, node runs, ranges)

    def _timed(self, kind, fn):
        def run(*args, **kwargs):
            self.kind = kind
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls.append((kind, time.perf_counter() - t))
                self.kind = None

        return run

    def __enter__(self):
        self._saved = construct._pass, search.dag_query, search._DagSearch.raws
        original = construct._pass

        def timed(groups, q, limits):
            t = time.perf_counter()
            out = original(groups, q, limits)
            dt = time.perf_counter() - t
            # a run's parts: (None, (s, e)) for query rows s:e, else (run, index array)
            runs = out[1].sources
            ranges = sum(k[1] - k[0] if src is None else len(k) for parts in runs for src, k in parts)
            self.passes.append((self.kind, dt, len(runs), ranges))
            return out

        construct._pass = timed
        search.dag_query = self._timed("single", self._saved[1])
        search._DagSearch.raws = self._timed("batched", self._saved[2])
        return self

    def __exit__(self, *exc):
        construct._pass, search.dag_query, search._DagSearch.raws = self._saved


def profile(label: str, run, repeat: int) -> list[str]:
    """Lines of the per-kind profile of ``run()``, a search, run ``repeat`` times."""
    totals: dict = {}
    for _ in range(repeat):
        with _Profile() as prof:
            run()
        for kind in ("batched", "single"):
            calls = [dt for k, dt in prof.calls if k == kind]
            passes = [p for p in prof.passes if p[0] == kind]
            seconds = (sum(calls), sum(p[1] for p in passes))
            counts = (len(calls), len(passes), sum(p[2] for p in passes), sum(p[3] for p in passes))
            best = totals.get(kind, ((math.inf, math.inf), counts))[0]
            totals[kind] = (tuple(map(min, seconds, best)), counts)
    lines = []
    for kind, ((call_s, pass_s), (calls, passes, runs, ranges)) in totals.items():
        lines.append(
            f"{label:<42} {kind:<7} {calls:>5} {passes:>6} {runs / max(passes, 1):>9.1f} {ranges / max(runs, 1):>10.1f}"
            f" {1e6 * call_s / max(calls, 1):>8.1f} {1e6 * pass_s / max(passes, 1):>8.1f} {1e6 * pass_s / max(runs, 1):>7.1f}"
        )
    return lines


def _searches(args):
    """``(label, run)`` of every search to profile."""
    if args.bench_seed is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        return [(op.kind, op.run) for op in workloads.dag_search(meanosc, args.bench_seed).ops]
    _, tree = log_staircase(math.exp(args.delta / 5.0), args.depth)
    expr = compile_to_circle(tree, (args.lam_hom, construct.default_levels(args.lam_hom)))
    cfg = search.SearchConfig(certify=True, r_long=2000, max_periods=6000, refine_iters=24)
    return [
        (f"staircase delta={args.delta:g} depth={args.depth} p={p:g}", lambda p=p: search.circle_bmo_norm(expr, p, cfg))
        for p in args.p
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--delta", type=float, default=0.3, help="staircase ratio exp(delta/5) (default 0.3)")
    parser.add_argument("--depth", type=int, default=50, help="staircase depth (default 50, verify_jn's at delta 0.3)")
    parser.add_argument("--p", type=lambda s: [float(x) for x in s.split(",")], default=[1.0], help="orders, comma-separated (default 1)")
    parser.add_argument("--lam-hom", type=float, default=0.9995, help="homogenization ratio (default 0.9995)")
    parser.add_argument("--bench-seed", type=int, default=None, help="profile the dag_search workload at this seed instead")
    parser.add_argument("--repeat", type=int, default=3, help="runs per search; times are the least (default 3)")
    args = parser.parse_args(argv)
    print(
        f"{'search':<42} {'kind':<7} {'calls':>5} {'passes':>6} {'runs/pass':>9} {'ranges/run':>10}"
        f" {'us/call':>8} {'us/pass':>8} {'us/run':>7}"
    )
    for label, run in _searches(args):
        print("\n".join(profile(label, run, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
