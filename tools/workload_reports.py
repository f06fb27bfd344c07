"""Record the search reports of a benchmark workload's ops, in the ``pytest --record-reports`` format.

Usage, from the root of a checkout::

    python3 tools/workload_reports.py OUT --workload flat_small [--seeds 1,2,3]

For every seed, the script builds the workload of ``bench/workloads.py``
from that seed and runs each of its ops once, in order, with the
recorder of ``tests/conftest.py``: one search-report line per op, whose
test id is ``WORKLOAD[seed=S]::I:KIND`` for the op's index ``I`` and kind,
followed by a line for each ``construct.query`` call the op makes.  The
lines are appended to OUT, so that ``tools/compare_reports.py --exact``
compares the benchmark's ops across two checkouts as it does the tests'.
Ops are not checked against the oracle and nothing is timed; nothing
under ``bench/`` changes.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _recorder_class():
    spec = importlib.util.spec_from_file_location("_recording_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._Recorder


def main(argv=None) -> int:
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    workloads = importlib.import_module("workloads")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="record file to append to")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1", metavar="S[,S]", help="seeds of the workload, comma-separated (default 1)")
    args = parser.parse_args(argv)
    m = importlib.import_module("meanosc")
    # set up before recording, so that only the ops' calls are recorded
    built = [(seed, workloads.WORKLOADS[args.workload](m, seed)) for seed in map(int, args.seeds.split(","))]
    recorder = _recorder_class()(args.out)
    try:
        for seed, workload in built:
            for i, op in enumerate(workload.ops):
                recorder.test_id = f"{args.workload}[seed={seed}]::{i}:{op.kind}"
                op.run()
    finally:
        recorder.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
