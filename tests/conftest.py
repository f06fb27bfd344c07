"""Opt-in recorder of every search report, for "same reports" checks across commits.

``pytest --record-reports PATH`` appends one tab-separated line per
``SearchReport`` that a search builds while the suite runs:

    test id, target kind (``flat`` or ``dag``), lower, upper, witness left,
    witness right, evaluations, witness value

Floats are written with ``float.hex``, so two records compare bitwise with
``diff``.  The target kind is ``dag`` for a construction searched
structurally (more than ``search._FLAT_LIMIT`` pieces) and ``flat``
otherwise.  The witness value is the objective re-evaluated on the witness
through an independent path (``StepFunction.distribution`` or
``construct.query``), to check that the witness reproduces ``lower``.
Without the option nothing is wrapped and no outcome changes.
"""
from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--record-reports",
        metavar="PATH",
        default=None,
        help="append every search report to PATH as float-hex lines",
    )


def _hex(x) -> str:
    return "None" if x is None else float(x).hex()


class _Recorder:
    def __init__(self, path: str):
        from meanosc import construct, search

        self._search_mod = search
        self._construct = construct
        self._original = search._search
        self._out = open(path, "a", encoding="utf-8")
        self.test_id = "-"
        search._search = self._wrap(self._original)

    def _witness_value(self, target, objective, report) -> float:
        q = (report.witness.left, report.witness.right)
        if isinstance(target, self._construct.ConstructExpr):
            dist = self._construct.query(target, q).distribution
        else:
            dist = target.distribution(q)
        return objective.value_from_raw(objective.raw_from_dist(dist))

    def _wrap(self, original):
        construct, search = self._construct, self._search_mod

        def recorded(target, objective, cfg, collect_scan):
            report = original(target, objective, cfg, collect_scan)
            dag = (
                isinstance(target, construct.ConstructExpr)
                and construct.required_pieces(target) > search._FLAT_LIMIT
            )
            fields = (
                self.test_id,
                "dag" if dag else "flat",
                _hex(report.lower),
                _hex(report.upper),
                _hex(report.witness.left),
                _hex(report.witness.right),
                str(report.evaluations),
                _hex(self._witness_value(target, objective, report)),
            )
            self._out.write("\t".join(fields) + "\n")
            return report

        return recorded

    def close(self):
        self._search_mod._search = self._original
        self._out.close()


def pytest_configure(config):
    path = config.getoption("--record-reports")
    if path:
        config._report_recorder = _Recorder(path)


def pytest_unconfigure(config):
    recorder = getattr(config, "_report_recorder", None)
    if recorder is not None:
        recorder.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    recorder = getattr(item.config, "_report_recorder", None)
    if recorder is not None:
        recorder.test_id = item.nodeid
    yield
