"""CLI surface: schemas, exit codes, determinism, round-trips."""
import json
import math
import subprocess
import sys

import pytest

from meanosc.construct import expr_from_dict, glue, homogenize, leaf, required_pieces
from meanosc.distributions import DiscreteDistribution, tv_distance
from meanosc.errors import InputError
from meanosc.martingales import MartingaleTree, log_staircase
from meanosc.stepfun import Interval, MonotoneMap, StepFunction


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "meanosc.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def sign_file(tmp_path):
    f = StepFunction(Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(f.to_dict()))
    return str(path)


@pytest.fixture
def weight_file(tmp_path):
    w = StepFunction(Interval(0.0, 1.0), [0.0, 0.5, 1.0], [2.0, 0.5])
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(w.to_dict()))
    return str(path)


def test_norm_on_sign(sign_file):
    res = run_cli("norm", "--in", sign_file, "--p", "2")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["lower"] == pytest.approx(1.0, abs=1e-12)
    assert out["witness"]["left"] == -1.0
    assert out["witness"]["right"] == 1.0


def test_norm_output_round_trips(sign_file, tmp_path):
    out_path = tmp_path / "report.json"
    res = run_cli("norm", "--in", sign_file, "--p", "1", "--out", str(out_path))
    assert res.returncode == 0
    first = json.loads(out_path.read_text())
    assert json.loads(json.dumps(first)) == first
    res2 = run_cli("norm", "--in", sign_file, "--p", "1")
    assert json.loads(res2.stdout) == first


def test_norm_determinism_across_threads(sign_file):
    outs = []
    for threads in ("1", "3"):
        res = run_cli("norm", "--in", sign_file, "--p", "2", "--threads", threads)
        outs.append(json.loads(res.stdout))
    outs[1]["config"]["threads"] = outs[0]["config"]["threads"]
    assert outs[0] == outs[1]


def test_norm_csv_scan(sign_file, tmp_path):
    out_path = tmp_path / "scan.csv"
    res = run_cli("norm", "--in", sign_file, "--p", "2", "--format", "csv", "--out", str(out_path))
    assert res.returncode == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "left,right,length,value"
    row = lines[1].split(",")
    assert len(row) == 4
    assert float(row[2]) == pytest.approx(float(row[1]) - float(row[0]), abs=1e-12)


def test_ap_command(weight_file):
    res = run_cli("ap", "--in", weight_file, "--p", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["lower"] == pytest.approx(25.0 / 16.0, abs=1e-9)
    res_inf = run_cli("ap", "--in", weight_file, "--p", "inf")
    assert res_inf.returncode == 0
    assert json.loads(res_inf.stdout)["lower"] > 1.0


def test_eval_weak_expint_rh(sign_file, weight_file):
    res = run_cli("eval", "--in", sign_file, "--left", "-1", "--right", "1", "--p", "2")
    out = json.loads(res.stdout)
    assert out["average"] == 0.0
    assert out["central_moment"] == 1.0
    res = run_cli("weak", "--in", sign_file, "--lambda", "1.0", "--left", "-1", "--right", "1")
    assert json.loads(res.stdout)["value"] == 1.0
    res = run_cli("expint", "--in", weight_file, "--C", "1.0", "--left", "0", "--right", "1")
    expected = 0.5 * math.exp(2.0) + 0.5 * math.exp(0.5)
    assert json.loads(res.stdout)["value"] == pytest.approx(expected, abs=1e-12)
    res = run_cli("rh", "--in", weight_file, "--q", "2", "--left", "0", "--right", "1")
    assert json.loads(res.stdout)["value"] == pytest.approx(math.sqrt(17.0 / 8.0) / 1.25, abs=1e-12)


def test_constants_command():
    res = run_cli("constants", "--which", "c3p", "--p", "1")
    assert json.loads(res.stdout)["value"] == pytest.approx(2.0 / math.e, abs=1e-12)
    res = run_cli("constants", "--which", "classic_jn")
    out = json.loads(res.stdout)
    assert out["C2"] == pytest.approx(2.0 / math.e, abs=1e-15)
    res = run_cli("constants", "--which", "jn_envelope", "--lambda", "3.0")
    assert json.loads(res.stdout)["value"] == pytest.approx(0.25 * math.exp(-1.0), abs=1e-12)


def test_staircase_compile_pipeline(tmp_path, sign_file):
    stair_path = tmp_path / "stair.json"
    res = run_cli("staircase", "--lambda", "1.5", "--depth", "4", "--out", str(stair_path))
    assert res.returncode == 0
    bundle = json.loads(stair_path.read_text())
    assert "function" in bundle and "martingale" in bundle

    mart_path = tmp_path / "mart.json"
    mart_path.write_text(json.dumps(bundle["martingale"]))
    expr_path = tmp_path / "expr.json"
    res = run_cli("compile", "--in", str(mart_path), "--lambda-hom", "0.9", "--out", str(expr_path))
    assert res.returncode == 0
    expr = expr_from_dict(json.loads(expr_path.read_text()))
    from meanosc.distributions import DiscreteDistribution

    root = DiscreteDistribution.from_dict(bundle["martingale"]["root"]["value"])
    assert tv_distance(expr.distribution(), root) < 1e-12

    res = run_cli("eval", "--in", str(expr_path), "--left", "0", "--right", "1")
    out = json.loads(res.stdout)
    assert out["partial_end_weight"] == 0.0


def test_eval_of_a_one_atom_expression_visits_only_its_root(tmp_path):
    # a periodized homogenized constant holds one atom: its query answers
    # without recursion, so depth and visits count the root alone
    hom = {"kind": "hom", "child": {"kind": "const", "value": 2.0}, "lambda_hom": 0.5, "levels": 3}
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"kind": "periodize", "child": hom}))
    res = run_cli("eval", "--in", str(path), "--left", "0.3", "--right", "2.1")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert (out["depth"], out["nodes_visited"], out["average"]) == (1, 1, 2.0)
    # the two partial periods, 0.7 + 0.1 of the length 1.8
    assert out["partial_end_weight"] == pytest.approx(0.8 / 1.8, rel=1e-12)


def test_homogenize_and_glue(tmp_path, sign_file):
    hom_path = tmp_path / "hom.json"
    res = run_cli("homogenize", "--in", sign_file, "--lambda-hom", "0.5", "--levels", "3", "--out", str(hom_path))
    assert res.returncode == 0
    expr = expr_from_dict(json.loads(hom_path.read_text()))
    assert expr.kind == "hom"
    glue_path = tmp_path / "glue.json"
    res = run_cli(
        "glue", "--in", sign_file, "--in", str(hom_path), "--alpha", "0.25",
        "--lambda-hom", "0.5", "--levels", "2", "--out", str(glue_path),
    )
    assert res.returncode == 0
    g = expr_from_dict(json.loads(glue_path.read_text()))
    assert g.kind == "glue"


def test_rearrange_and_monotone(tmp_path):
    f = StepFunction(Interval(0.0, 1.0), [0.0, 0.4, 1.0], [2.0, -1.0])
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(f.to_dict()))
    res = run_cli("rearrange", "--in", str(fpath))
    out = StepFunction.from_dict(json.loads(res.stdout))
    assert list(out.values) == [-1.0, 2.0]
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps({"knots": [[-1.0, -1.0], [0.0, 0.0], [1.0, 0.0]]}))
    res = run_cli("monotone", "--in", str(fpath), "--in", str(mpath))
    out = json.loads(res.stdout)
    assert out["lipschitz"] == 1.0
    assert StepFunction.from_dict(out["function"]).values.max() == 0.0


# -- exit codes --------------------------------------------------------------------


def test_exit_code_input_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    res = run_cli("norm", "--in", missing, "--p", "2")
    assert res.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("norm", "--in", str(bad), "--p", "2")
    assert res.returncode == 2


_STEP = {"domain": {"kind": "interval", "a": 0.0, "b": 1.0}, "breakpoints": [0.0, 1.0], "values": [2.0]}
_CONST = {"kind": "const", "value": 2.0}
_DELTA = {"atoms": [{"value": 2.0, "weight": 1.0}]}


@pytest.mark.parametrize(
    "decode, doc",
    [
        (MartingaleTree.from_dict, {"kind": "measure"}),
        (MartingaleTree.from_dict, {"kind": "measure", "root": {"value": _DELTA, "children": [{"node": {"value": _DELTA}}]}}),
        (expr_from_dict, {"kind": "hom", "child": _CONST, "lambda_hom": 0.5, "levels": "x"}),
        (expr_from_dict, {"kind": "hom", "lambda_hom": 0.5, "levels": 3}),
        (expr_from_dict, [_CONST]),
        (StepFunction.from_dict, {k: v for k, v in _STEP.items() if k != "breakpoints"}),
        (MonotoneMap.from_dict, {"slopes": [1.0]}),
        (MonotoneMap.from_dict, {"knots": [1, 2]}),
        (MonotoneMap.from_dict, {"knots": [[0.0, 0.0], [1.0]]}),
        (DiscreteDistribution.from_dict, {"weights": [1.0]}),
        (DiscreteDistribution.from_dict, [_DELTA]),
    ],
    ids=["martingale_no_root", "child_no_prob", "hom_levels_not_int", "hom_no_child", "expr_list", "step_no_breakpoints",
         "map_no_knots", "map_knots_not_pairs", "map_knot_too_short", "dist_no_atoms", "dist_list"],
)
def test_decoders_raise_input_error(decode, doc):
    # the library's decoders report a malformed document as an InputError, not a bare KeyError or TypeError
    with pytest.raises(InputError):
        decode(doc)


@pytest.mark.parametrize(
    "command, doc",
    [
        ("eval", {k: v for k, v in _STEP.items() if k != "breakpoints"}),
        ("eval", {"kind": "hom", "lambda_hom": 0.5, "levels": 3}),
        ("eval", {"kind": "hom", "child": _CONST, "lambda_hom": 0.5, "levels": "x"}),
        ("compile", {"kind": "measure"}),
        ("compile", {"kind": "measure", "root": {"value": _DELTA, "children": [{"node": {"value": _DELTA}}]}}),
        ("compile", {"kind": "point", "root": {"value": [0.0, 1.0], "children": []}}),
        ("monotone", {"slopes": [1.0]}),
        ("eval", [_STEP]),
    ],
    ids=["step_no_breakpoints", "hom_no_child", "hom_levels_not_int", "martingale_no_root", "child_no_prob",
         "point_martingale", "map_no_knots", "top_level_list"],
)
def test_malformed_input_is_input_error(tmp_path, command, doc):
    # a decoding error of any input schema exits 2 and names the file, with no traceback
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    step = tmp_path / "step.json"
    step.write_text(json.dumps(_STEP))
    args = {
        "eval": ("eval", "--in", str(path), "--left", "0", "--right", "1"),
        "compile": ("compile", "--in", str(path)),
        "monotone": ("monotone", "--in", str(step), "--in", str(path)),
    }[command]
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error:") and "Traceback" not in res.stderr, res.stderr
    assert str(path) in res.stderr, res.stderr


def test_compile_invalid_lambda_is_input_error(tmp_path):
    mart_path = tmp_path / "mart.json"
    mart_path.write_text(json.dumps(log_staircase(1.5, 3)[1].to_dict()))
    for lam in ("0", "1", "-0.5"):
        res = run_cli("compile", "--in", str(mart_path), "--lambda-hom", lam)
        assert res.returncode == 2, (lam, res.stderr)
        assert res.stderr.startswith("input error:"), (lam, res.stderr)


def test_verify_jn_invalid_lambda_is_input_error():
    for lam in ("0", "1"):
        res = run_cli("verify-jn", "--lambda-hom", lam)
        assert res.returncode == 2, (lam, res.stderr)
        assert res.stderr.startswith("input error:"), (lam, res.stderr)


def test_csv_scan_of_dag_target_is_input_error(tmp_path):
    sign = StepFunction(Interval(-1.0, 1.0), [-1.0, 0.0, 1.0], [-1.0, 1.0])
    expr = glue(homogenize(homogenize(leaf(sign), 0.9)), leaf(sign), 0.5, 0.9)
    assert required_pieces(expr) > 600  # searched as a DAG, not flat
    expr_path = tmp_path / "dag.json"
    expr_path.write_text(json.dumps(expr.to_dict()))
    out_path = tmp_path / "scan.csv"
    res = run_cli("norm", "--in", str(expr_path), "--p", "2", "--format", "csv", "--out", str(out_path))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error:"), res.stderr
    assert not out_path.exists()


def test_csv_without_out_fails_before_the_search(sign_file, weight_file, monkeypatch, capsys):
    import meanosc.cli as cli_mod

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the options were checked")

    for name in ("bmo_norm", "circle_bmo_norm", "ap_constant", "a_inf_constant"):
        monkeypatch.setattr(cli_mod, name, no_search)
    for args in (
        ("norm", "--in", sign_file, "--p", "1"),
        ("ap", "--in", weight_file, "--p", "2"),
        ("ap", "--in", weight_file, "--p", "inf"),
    ):
        monkeypatch.setattr(sys, "argv", ["meanosc", *args, "--format", "csv"])
        with pytest.raises(SystemExit) as exit_info:
            cli_mod.main()
        assert exit_info.value.code == 2, args
        assert "--format csv requires --out" in capsys.readouterr().err, args


def test_exit_code_unknown_flag(sign_file):
    res = run_cli("norm", "--in", sign_file, "--p", "2", "--bogus", "1")
    assert res.returncode == 2


def test_exit_code_bad_parameter(sign_file):
    res = run_cli("norm", "--in", sign_file, "--p", "0.5")
    assert res.returncode == 2


def test_verify_rh_suite(tmp_path):
    out_path = tmp_path / "rh.json"
    res = run_cli("verify-rh", "--out", str(out_path), timeout=600)
    assert res.returncode == 0
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    for check in report["checks"]:
        assert set(check) >= {"name", "expected", "observed", "tolerance", "pass"}


def test_verify_weak_small_corpus():
    res = run_cli("verify-weak", "--count", "10", "--seed", "3", timeout=600)
    assert res.returncode == 0
    assert json.loads(res.stdout)["pass"] is True
