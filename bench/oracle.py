"""Correctness oracle of the benchmark.

Every op result is checked through a public path other than the one that
produced it:

a search report's witness interval must reproduce its lower bound,
through ``StepFunction.central_moment`` / ``StepFunction.distribution``
for flat targets or ``construct.query(...).distribution`` for DAG
targets, followed by the distribution functional; and ``lower <= upper``
must hold when a bracket is reported.

Fixed anchor inputs with exact answers are checked at the acceptance
tolerances of the test suite.
"""
from __future__ import annotations

import math

WITNESS_REL_TOL = 1e-9


class OracleError(Exception):
    """A result disagrees with its independent check."""


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def check_report(report, reproduce) -> float:
    """Check a search report; return the witness reproduction error.

    ``reproduce`` maps the witness interval to the reported functional,
    computed independently of the search.
    """
    lower = report.lower
    if not math.isfinite(lower):
        raise OracleError(f"lower bound is not finite: {lower!r}")
    if report.upper is not None and not lower <= report.upper:
        raise OracleError(f"bracket inverted: lower {lower!r} > upper {report.upper!r}")
    value = float(reproduce(report.witness))
    err = _rel(value, lower)
    if not err <= WITNESS_REL_TOL:
        raise OracleError(
            f"witness [{report.witness.left!r}, {report.witness.right!r}] gives {value!r}, "
            f"report says {lower!r} (relative error {err:.3e})"
        )
    return err


def anchors(m):
    """(name, call, exact answer, tolerance) of the fixed anchor inputs."""
    sf, search = m.stepfun, m.search
    cfg = search.SearchConfig(threads=1, certify=True)
    sign = sf.StepFunction(sf.Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])
    step = sf.StepFunction(sf.Interval(0.0, 1.0), [0.0, 0.75, 1.0], [0.0, 1.0])
    weight = sf.StepFunction(sf.Interval(0.0, 1.0), [0.0, 0.5, 1.0], [2.0, 0.5])
    out = [(f"sign_step_bmo_p{p:g}", lambda p=p: search.bmo_norm(sign, p, cfg), 1.0, 1e-12) for p in (1.0, 2.0, 3.0)]
    out += [(f"step_075_bmo_p{p:g}", lambda p=p: search.bmo_norm(step, p, cfg), 0.5, 1e-6) for p in (1.0, 2.0)]
    out.append(("two_step_a2", lambda: search.ap_constant(weight, 2.0, cfg), 25.0 / 16.0, 1e-9))
    return out


def check_anchor(report, expected: float, tol: float) -> float:
    if report.upper is not None and not report.lower <= report.upper:
        raise OracleError("anchor bracket inverted")
    err = abs(report.lower - expected)
    if not err <= tol:
        raise OracleError(f"anchor gives {report.lower!r}, exact answer {expected!r} (error {err:.3e} > {tol:g})")
    return err
