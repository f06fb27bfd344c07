"""Opt-in recorder of every search report and query, for "same results" checks across commits.

``pytest --record-reports PATH`` appends one tab-separated line per
``SearchReport`` that a search builds while the suite runs:

    test id, target kind (``flat`` or ``dag``), lower, upper, witness left,
    witness right, evaluations, witness value, objective name, carrier
    (``interval`` or ``circle``)

and one per ``construct.query`` call, wherever the library or a test binds
that function:

    test id, ``query``, left, right, distribution values, distribution
    weights, depth, nodes visited, partial end weight

and one per ``martingales.validate_membership`` call, bound the same way:

    test id, ``membership``, passed, worst margin, offending path

Floats are written with ``float.hex`` (a distribution as comma-separated
hex), so two records compare bitwise with ``diff``.  The target kind is
``dag`` for a construction searched structurally (more than
``search._FLAT_LIMIT`` pieces) and ``flat`` otherwise.  The witness value is the objective re-evaluated on the witness
through an independent path (``StepFunction.distribution`` or
``construct.query``), to check that the witness reproduces ``lower``.
Without the option nothing is wrapped and no outcome changes.

Hypothesis draws its examples from a seed derived from each test's own
source (``derandomize``) and keeps no example database, so two checkouts
with the same test files search the same inputs and their records pair
report by report.
"""
from __future__ import annotations

import sys

import pytest
from hypothesis import settings

settings.register_profile("comparable", derandomize=True, database=None)
settings.load_profile("comparable")


def pytest_addoption(parser):
    parser.addoption(
        "--record-reports",
        metavar="PATH",
        default=None,
        help="append every search report, construct.query result and membership validation to PATH as float-hex lines",
    )


def _hex(x) -> str:
    return "None" if x is None else float(x).hex()


class _Recorder:
    def __init__(self, path: str):
        from meanosc import construct, martingales, search

        self._search_mod = search
        self._construct = construct
        self._original = search._search
        self._query = construct.query
        self._out = open(path, "a", encoding="utf-8")
        self.test_id = "-"
        search._search = self._wrap(self._original)
        # rebind construct.query and validate_membership in every loaded
        # library module; modules imported later bind the wrapped functions
        # themselves
        validate = martingales.validate_membership
        wrappers = {self._query: self._wrap_query(self._query), validate: self._wrap_membership(validate)}
        self._bindings = [
            (mod, name, value)
            for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "meanosc"
            for name, value in list(vars(mod).items())
            if any(value is original for original in wrappers)
        ]
        for mod, name, original in self._bindings:
            setattr(mod, name, wrappers[original])

    def _witness_value(self, target, objective, report) -> float:
        q = (report.witness.left, report.witness.right)
        if isinstance(target, self._construct.ConstructExpr):
            dist = self._query(target, q).distribution
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
                objective.name,
                "circle" if target.is_circle else "interval",
            )
            self._out.write("\t".join(fields) + "\n")
            return report

        return recorded

    def _wrap_query(self, original):
        def recorded(e, q, functional=None):
            res = original(e, q, functional)
            iq = self._construct.as_query(q)
            fields = (
                self.test_id,
                "query",
                _hex(iq.left),
                _hex(iq.right),
                ",".join(map(_hex, res.distribution.values.tolist())),
                ",".join(map(_hex, res.distribution.weights.tolist())),
                str(res.depth),
                str(res.nodes_visited),
                _hex(res.partial_end_weight),
            )
            self._out.write("\t".join(fields) + "\n")
            return res

        return recorded

    def _wrap_membership(self, original):
        def recorded(M, dom):
            report = original(M, dom)
            fields = (self.test_id, "membership", str(report.passed), _hex(report.worst_margin), str(report.offending_path))
            self._out.write("\t".join(fields) + "\n")
            return report

        return recorded

    def close(self):
        self._search_mod._search = self._original
        for mod, name, original in self._bindings:
            setattr(mod, name, original)
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
