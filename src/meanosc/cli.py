"""Command-line surface.

Every subcommand reads and writes the JSON schemas of the owning modules
and prints its result as JSON (17-significant-digit floats, so output
round-trips binary64 exactly).  Exit codes: 0 success, 1 failed
verification suite, 2 input error, 3 piece-budget error.
"""
from __future__ import annotations

import json
import math
import os
import sys

import click

from . import constants as consts
from .construct import ConstructExpr, default_levels, expr_from_dict, homogenize as hom_node
from .construct import glue as glue_node
from .construct import leaf, query
from .errors import BudgetError, InputError, decoder
from .martingales import MartingaleTree, compile_to_circle, log_staircase, power_staircase
from .search import (
    SearchConfig,
    a_inf_constant,
    ap_constant,
    bmo_norm,
    circle_bmo_norm,
    exp_integral,
    reverse_holder_ratio,
    weak_distribution,
)
from .stepfun import MonotoneMap, StepFunction, compose_monotone, monotone_rearrangement
from . import verify as verify_mod


def _check_out(path: str | None):
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise InputError(f"output directory does not exist: {parent}")


def _load(path: str, decode):
    """``decode`` applied to the JSON in ``path``; a missing file, malformed JSON or a decoding error is an InputError naming the file."""
    if not os.path.exists(path):
        raise InputError(f"input file does not exist: {path}")
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return decode(d)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


@decoder
def _target_from_dict(d: dict):
    if "domain" in d:
        return StepFunction.from_dict(d)
    kind = d.get("kind")
    if kind in ("leaf", "const", "hom", "glue", "periodize"):
        return expr_from_dict(d)
    if kind == "measure":
        return MartingaleTree.from_dict(d)
    raise InputError("unrecognized input schema")


def _load_target(path: str):
    return _load(path, _target_from_dict)


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=2)
    if out is None:
        click.echo(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _check_report_out(fmt: str, out: str | None):
    """Reject report options before the search runs."""
    _check_out(out)
    if fmt == "csv" and out is None:
        raise InputError("--format csv requires --out")


def _emit_report(report, fmt: str, out: str | None):
    """JSON report to ``out``, or with ``csv`` the candidate scan to ``out`` and the report to stdout."""
    if fmt == "json":
        _emit(report.to_dict(), out)
        return
    with open(out, "w") as fh:
        fh.write("left,right,length,value\n")
        for left, right, length, value in report.scan:
            fh.write(
                f"{float(left)!r},{float(right)!r},{float(length)!r},{float(value)!r}\n"
            )
    click.echo(json.dumps(report.to_dict(), indent=2))


def _search_options(fn):
    fn = click.option("--r-long", type=int, default=64, show_default=True, help="long-arc copy threshold")(fn)
    fn = click.option("--max-periods", type=int, default=256, show_default=True, help="largest scanned arc in periods")(fn)
    fn = click.option("--certify", is_flag=True, help="attach a certified upper bound")(fn)
    fn = click.option("--threads", type=int, default=1, show_default=True)(fn)
    return fn


def _config(r_long, max_periods, certify, threads) -> SearchConfig:
    return SearchConfig(
        r_long=r_long,
        max_periods=max_periods,
        certify=certify,
        threads=threads,
        refine_iters=48,
    )


@click.group()
def cli():
    """Exact mean-oscillation and weight-constant computations."""


@cli.command("eval")
@click.option("--in", "path", required=True, type=str)
@click.option("--left", type=float, required=True)
@click.option("--right", type=float, required=True)
@click.option("--p", type=float, default=None, help="also report the centered p-moment")
@click.option("--out", type=str, default=None)
def eval_cmd(path, left, right, p, out):
    """Average, distribution, and optionally a centered moment over an interval."""
    _check_out(out)
    target = _load_target(path)
    q = (left, right)
    if isinstance(target, StepFunction):
        result = {
            "average": target.average(q),
            "distribution": target.distribution(q).to_dict(),
        }
        if p is not None:
            result["central_moment"] = target.central_moment(q, p)
    elif isinstance(target, ConstructExpr):
        res = query(target, q)
        result = {
            "average": res.distribution.barycenter(),
            "distribution": res.distribution.to_dict(),
            "depth": res.depth,
            "partial_end_weight": res.partial_end_weight,
            "nodes_visited": res.nodes_visited,
        }
        if p is not None:
            result["central_moment"] = res.distribution.central_moment(p)
    else:
        raise InputError("eval expects a step function or an expression")
    _emit(result, out)


@cli.command("norm")
@click.option("--in", "path", required=True, type=str)
@click.option("--p", type=float, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=str, default=None)
@_search_options
def norm_cmd(path, p, fmt, out, r_long, max_periods, certify, threads):
    """Oscillation seminorm search (interval or circle, by target carrier)."""
    _check_report_out(fmt, out)
    target = _load_target(path)
    cfg = _config(r_long, max_periods, certify, threads)
    collect = fmt == "csv"
    if getattr(target, "is_circle", False):
        report = circle_bmo_norm(target, p, cfg, collect_scan=collect)
    else:
        report = bmo_norm(target, p, cfg, collect_scan=collect)
    _emit_report(report, fmt, out)


@cli.command("ap")
@click.option("--in", "path", required=True, type=str)
@click.option("--p", type=str, required=True, help="weight exponent (> 1) or 'inf'")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=str, default=None)
@_search_options
def ap_cmd(path, p, fmt, out, r_long, max_periods, certify, threads):
    """Weight-constant search; --p inf gives the limiting constant."""
    _check_report_out(fmt, out)
    target = _load_target(path)
    cfg = _config(r_long, max_periods, certify, threads)
    collect = fmt == "csv"
    if p.strip().lower() in ("inf", "infinity"):
        report = a_inf_constant(target, cfg, collect_scan=collect)
    else:
        report = ap_constant(target, float(p), cfg, collect_scan=collect)
    _emit_report(report, fmt, out)


@cli.command("weak")
@click.option("--in", "path", required=True, type=str)
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--left", type=float, required=True)
@click.option("--right", type=float, required=True)
@click.option("--out", type=str, default=None)
def weak_cmd(path, lam, left, right, out):
    """Exact normalized measure of large deviations from the interval mean."""
    _check_out(out)
    target = _load_target(path)
    if not isinstance(target, StepFunction):
        raise InputError("weak expects a step function input")
    _emit({"value": weak_distribution(target, (left, right), lam)}, out)


@cli.command("expint")
@click.option("--in", "path", required=True, type=str)
@click.option("--C", "c", type=float, required=True)
@click.option("--left", type=float, default=None)
@click.option("--right", type=float, default=None)
@click.option("--out", type=str, default=None)
def expint_cmd(path, c, left, right, out):
    """Exact exponential integral; full circle when no interval is given."""
    _check_out(out)
    target = _load_target(path)
    q = None
    if left is not None or right is not None:
        if left is None or right is None:
            raise InputError("--left and --right must be given together")
        q = (left, right)
    value = exp_integral(target, q, c)
    _emit({"value": value if math.isfinite(value) else "+inf"}, out)


@cli.command("rh")
@click.option("--in", "path", required=True, type=str)
@click.option("--q", "qexp", type=float, required=True)
@click.option("--left", type=float, required=True)
@click.option("--right", type=float, required=True)
@click.option("--out", type=str, default=None)
def rh_cmd(path, qexp, left, right, out):
    """Exact reverse Holder ratio of a positive step weight."""
    _check_out(out)
    target = _load_target(path)
    if not isinstance(target, StepFunction):
        raise InputError("rh expects a step function input")
    _emit({"value": reverse_holder_ratio(target, (left, right), qexp)}, out)


@cli.command("homogenize")
@click.option("--in", "path", required=True, type=str)
@click.option("--lambda-hom", type=float, default=0.9, show_default=True)
@click.option("--levels", type=int, default=None)
@click.option("--out", type=str, default=None)
def homogenize_cmd(path, lambda_hom, levels, out):
    """Wrap the input in a homogenization node and emit the expression."""
    _check_out(out)
    target = _load_target(path)
    if isinstance(target, StepFunction):
        target = leaf(target)
    if not isinstance(target, ConstructExpr):
        raise InputError("homogenize expects a step function or an expression")
    _emit(hom_node(target, lambda_hom, levels).to_dict(), out)


@cli.command("glue")
@click.option("--in", "paths", required=True, type=str, multiple=True)
@click.option("--alpha", type=float, required=True)
@click.option("--lambda-hom", type=float, default=0.9, show_default=True)
@click.option("--levels", type=int, default=None)
@click.option("--out", type=str, default=None)
def glue_cmd(paths, alpha, lambda_hom, levels, out):
    """Glue two inputs into a circle expression (second occupies [0, alpha))."""
    _check_out(out)
    if len(paths) != 2:
        raise InputError("glue needs exactly two --in inputs")
    exprs = []
    for path in paths:
        target = _load_target(path)
        if isinstance(target, StepFunction):
            target = leaf(target)
        if not isinstance(target, ConstructExpr):
            raise InputError("glue expects step functions or expressions")
        exprs.append(target)
    _emit(glue_node(exprs[0], exprs[1], alpha, lambda_hom, levels).to_dict(), out)


@cli.command("compile")
@click.option("--in", "path", required=True, type=str)
@click.option("--lambda-hom", type=float, default=0.9, show_default=True)
@click.option("--levels", type=int, default=None)
@click.option("--out", type=str, default=None)
def compile_cmd(path, lambda_hom, levels, out):
    """Compile a measure-valued martingale into a circle expression."""
    _check_out(out)
    target = _load_target(path)
    if not isinstance(target, MartingaleTree):
        raise InputError("compile expects a martingale input")
    if levels is None:
        levels = default_levels(lambda_hom)
    expr = compile_to_circle(target, (lambda_hom, levels))
    _emit(expr.to_dict(), out)


@cli.command("staircase")
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--depth", type=int, required=True)
@click.option("--alpha", type=float, default=None, help="power exponent; log staircase when omitted")
@click.option("--p", type=float, default=2.0, show_default=True, help="weight exponent for power staircases")
@click.option("--out", type=str, default=None)
def staircase_cmd(lam, depth, alpha, p, out):
    """Emit a staircase step function together with its peeling martingale."""
    _check_out(out)
    if alpha is None:
        f, M = log_staircase(lam, depth)
    else:
        f, M = power_staircase(alpha, p, lam, depth)
    _emit({"function": f.to_dict(), "martingale": M.to_dict()}, out)


@cli.command("rearrange")
@click.option("--in", "path", required=True, type=str)
@click.option("--out", type=str, default=None)
def rearrange_cmd(path, out):
    """Monotone rearrangement of a step function."""
    _check_out(out)
    target = _load_target(path)
    if not isinstance(target, StepFunction):
        raise InputError("rearrange expects a step function input")
    _emit(monotone_rearrangement(target).to_dict(), out)


@cli.command("monotone")
@click.option("--in", "paths", required=True, type=str, multiple=True)
@click.option("--out", type=str, default=None)
def monotone_cmd(paths, out):
    """Compose a step function (first --in) with a monotone map (second --in)."""
    _check_out(out)
    if len(paths) != 2:
        raise InputError("monotone needs two --in inputs: function, then map")
    target = _load_target(paths[0])
    if not isinstance(target, StepFunction):
        raise InputError("the first input must be a step function")
    gmap = _load(paths[1], MonotoneMap.from_dict)
    result = compose_monotone(target, gmap)
    _emit({"function": result.to_dict(), "lipschitz": gmap.lipschitz}, out)


@cli.command("constants")
@click.option("--which", required=True, type=click.Choice(
    ["c3p", "lp_equiv", "jn_envelope", "classic_jn", "bellman_lp", "bellman_weak"]
))
@click.option("--p", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--out", type=str, default=None)
def constants_cmd(which, p, lam, out):
    """Closed-form sharp constants."""
    _check_out(out)
    if which == "c3p":
        if p is None:
            raise InputError("c3p requires --p")
        result = {"value": consts.c3p(p)}
    elif which == "lp_equiv":
        if p is None:
            raise InputError("lp_equiv requires --p")
        result = {"value": consts.lp_equiv_constant(p)}
    elif which == "jn_envelope":
        if lam is None:
            raise InputError("jn_envelope requires --lambda")
        result = {"value": consts.jn_weak_envelope(lam)}
    elif which == "classic_jn":
        c1, c2 = consts.classic_jn_constants()
        result = {"C1": c1, "C2": c2}
    elif which == "bellman_lp":
        if p is None:
            raise InputError("bellman_lp requires --p")
        result = {"value": consts.bellman_value("lp_moment", p=p)}
    else:
        if lam is None:
            raise InputError("bellman_weak requires --lambda")
        result = {"value": consts.bellman_value("weak_type", lam=lam)}
    _emit(result, out)


def _run_suite(report: dict, out: str | None) -> int:
    _emit(report, out)
    return 0 if report["pass"] else 1


@cli.command("verify-jn")
@click.option("--delta", type=float, default=0.3, show_default=True)
@click.option("--m", "target_mass", type=float, default=2.0, show_default=True)
@click.option("--depth", type=int, default=60, show_default=True, help="largest staircase depth tried")
@click.option("--lambda-hom", type=float, default=0.9995, show_default=True)
@click.option("--r-long", type=int, default=2000, show_default=True)
@click.option("--max-periods", type=int, default=6000, show_default=True)
@click.option("--out", type=str, default=None)
def verify_jn_cmd(delta, target_mass, depth, lambda_hom, r_long, max_periods, out):
    """Transference mechanism end to end (staircase, membership, compile, bracket)."""
    _check_out(out)
    report = verify_mod.verify_jn(
        delta=delta,
        target_mass=target_mass,
        max_depth=depth,
        lam_hom=lambda_hom,
        r_long=r_long,
        max_periods=max_periods,
    )
    sys.exit(_run_suite(report, out))


@cli.command("verify-weak")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=str, default=None)
def verify_weak_cmd(seed, count, tol, out):
    """Weak-type envelope on a seeded random corpus."""
    _check_out(out)
    sys.exit(_run_suite(verify_mod.verify_weak(seed, count, tol), out))


@cli.command("verify-lp")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--out", type=str, default=None)
def verify_lp_cmd(seed, count, tol, out):
    """Oscillation-norm comparisons across p on a seeded random corpus."""
    _check_out(out)
    sys.exit(_run_suite(verify_mod.verify_lp(seed, count, tol), out))


@cli.command("verify-rh")
@click.option("--out", type=str, default=None)
def verify_rh_cmd(out):
    """Weight-constant reference checks."""
    _check_out(out)
    sys.exit(_run_suite(verify_mod.verify_rh(), out))


@cli.command("verify-monotone")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--out", type=str, default=None)
def verify_monotone_cmd(seed, count, tol, out):
    """Norm monotonicity suite on a seeded random corpus."""
    _check_out(out)
    sys.exit(_run_suite(verify_mod.verify_monotone(seed, count, tol), out))


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except BudgetError as exc:
        click.echo(f"budget error: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
