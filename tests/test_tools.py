"""Repository tools: the report comparison, the workload report recorder and the DAG pass profile."""
import importlib.util
import math
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(test, kind, lower, upper, wl, wr, objective, carrier):
    fields = (test, kind, lower.hex(), "None" if upper is None else upper.hex(), wl.hex(), wr.hex(), "7", lower.hex(), objective, carrier)
    return "\t".join(fields) + "\n"


def test_compare_reports_pairs_reports_by_test_and_order(tmp_path, capsys):
    compare_reports = _load("compare_reports")
    query = "t::a\tquery\t0x0p+0\t0x1p+0\t0x1p+0\t0x1p+0\t1\t1\t0x0p+0\n"
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    before.write_text(
        _record("t::a", "flat", 2.0, None, 0.0, 0.5, "bmo_1", "interval")
        + query
        + _record("t::a", "flat", 4.0, 8.0, 0.0, 1.0, "bmo_1", "interval")
        + _record("t::b", "dag", 1.0, 2.0, 0.25, 0.5, "bmo_2", "circle")
        + _record("t::c", "flat", 1.0, None, 0.0, 1.0, "a_inf", "interval")
    )
    after.write_text(
        _record("t::a", "flat", 1.0, None, 0.0, 0.25, "bmo_1", "interval")
        + _record("t::a", "flat", 5.0, 6.0, 0.0, 1.0, "bmo_1", "interval")
        + query
        + _record("t::b", "dag", 1.0, 2.0, 0.25, 0.5, "bmo_2", "circle")
    )
    assert compare_reports.main([str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:-2]}
    # bmo_1: lower 2 -> 1 (drop 0.5) and 4 -> 5 (rise 0.25), upper 8 -> 6 (drop 0.25), one witness change
    assert rows[("bmo_1", "interval")] == ["2", "0.5", "0.25", "0.25", "0", "1"]
    assert rows[("bmo_2", "circle")] == ["1", "0", "0", "0", "0", "0"]
    assert lines[-2] == "largest lower drop: 0.5 relative, report 0 of t::a"
    assert lines[-1] == "reports only in the first file: 1, only in the second: 0"


def test_compare_reports_max_lower_drop_lists_and_fails(tmp_path, capsys):
    compare_reports = _load("compare_reports")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    before.write_text(
        _record("t::a", "flat", 2.0, None, 0.0, 0.5, "bmo_1", "interval")
        + _record("t::a", "flat", 1.0, None, 0.0, 0.5, "bmo_1", "interval")
        + _record("t::b", "flat", 4.0, None, 0.0, 1.0, "bmo_2", "circle")
    )
    after.write_text(
        _record("t::a", "flat", 2.0 * (1 - 1e-9), None, 0.0, 0.5, "bmo_1", "interval")
        + _record("t::a", "flat", 1.0 * (1 - 1e-13), None, 0.0, 0.5, "bmo_1", "interval")
        + _record("t::b", "flat", 5.0, None, 0.0, 1.0, "bmo_2", "circle")
    )
    # only the first report fell by more than 1e-12
    assert compare_reports.main([str(before), str(after), "--max-lower-drop", "1e-12"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "lower drop 1e-09 relative, report 0 of t::a"
    assert lines[-1] == "1 lower(s) fell by more than 1e-12 relative"
    assert compare_reports.main([str(before), str(after), "--max-lower-drop", "1e-8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 lower(s) fell by more than 1e-08 relative"


def test_compare_reports_lists_witness_moves(tmp_path, capsys):
    compare_reports = _load("compare_reports")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    before.write_text(
        _record("t::a", "dag", 2.0, 3.0, 0.0, 0.5, "bmo_1", "circle")
        + _record("t::a", "dag", 1.0, 3.0, 0.25, 0.5, "bmo_1", "circle")
        + _record("t::b", "flat", 4.0, None, 0.0, 1.0, "ap_2", "interval")
    )
    after.write_text(
        _record("t::a", "dag", 2.0, 3.0, -0.5, 0.5, "bmo_1", "circle")
        + _record("t::a", "dag", 1.0, 3.0, 0.25, 0.5, "bmo_1", "circle")
        + _record("t::b", "flat", 5.0, None, 0.0, 0.75, "ap_2", "interval")
    )
    # a tie (lower unchanged) and a move with its value; the listing leaves the exit status alone
    assert compare_reports.main([str(before), str(after), "--list-witness-moves"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "witness move, report 0 of t::a: [0.0, 0.5] -> [-0.5, 0.5], lower moved 0 relative",
        "witness move, report 0 of t::b: [0.0, 1.0] -> [0.0, 0.75], lower moved 0.25 relative",
        "2 witness(es) moved",
    ]
    assert compare_reports.main([str(before), str(after), "--list-witness-moves", "--max-lower-drop", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 lower(s) fell by more than 0 relative"


def test_compare_reports_restricts_to_objectives(tmp_path, capsys):
    compare_reports = _load("compare_reports")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    before.write_text(
        _record("t::a", "flat", 2.0, None, 0.0, 0.5, "bmo_3", "interval")
        + _record("t::a", "flat", 4.0, None, 0.0, 1.0, "bmo_1", "interval")
        + _record("t::b", "flat", 1.0, None, 0.0, 1.0, "bmo_1.5", "circle")
        + _record("t::c", "flat", 1.0, None, 0.0, 1.0, "bmo_1", "interval")
    )
    after.write_text(
        _record("t::a", "flat", 3.0, None, 0.0, 0.25, "bmo_3", "interval")
        + _record("t::a", "flat", 2.0, None, 0.0, 0.75, "bmo_1", "interval")
        + _record("t::b", "flat", 1.0, None, 0.0, 1.0, "bmo_1.5", "circle")
    )
    # the bmo_1 drop, its witness move and its unpaired report are left out
    args = [str(before), str(after), "--list-witness-moves", "--max-lower-drop", "0", "--objective", "bmo_3,bmo_1.5"]
    assert compare_reports.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:3]}
    assert rows == {
        ("bmo_1.5", "circle"): ["1", "0", "0", "0", "0", "0"],
        ("bmo_3", "interval"): ["1", "0", "0.5", "0", "0", "1"],
    }
    assert lines[3:] == [
        "no lower fell",
        "reports only in the first file: 0, only in the second: 0",
        "witness move, report 0 of t::a: [0.0, 0.5] -> [0.0, 0.25], lower moved 0.5 relative",
        "1 witness(es) moved",
        "0 lower(s) fell by more than 0 relative",
    ]
    # without the restriction the bmo_1 drop fails the run
    assert compare_reports.main(args[:-2]) == 1


def test_compare_reports_exact_lists_every_differing_field(tmp_path, capsys):
    compare_reports = _load("compare_reports")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    moved_count = _record("t::b", "flat", 1.0, None, 0.0, 1.0, "bmo_3", "interval").replace("\t7\t", "\t8\t")
    before.write_text(
        _record("t::a", "flat", 2.0, 3.0, 0.0, 0.5, "bmo_1", "interval")
        + _record("t::a", "flat", 1.0, 3.0, 0.25, 0.5, "bmo_1", "circle")
        + _record("t::b", "flat", 1.0, None, 0.0, 1.0, "bmo_3", "interval")
        + _record("t::c", "flat", 0.0, None, 0.0, 1.0, "bmo_2", "interval")
    )
    after.write_text(
        _record("t::a", "flat", 2.0, 3.0, 0.0, 0.5, "bmo_1", "interval")
        # one ulp of lower (and so of the witness value), and upper gone
        + _record("t::a", "flat", math.nextafter(1.0, 2.0), None, 0.25, 0.5, "bmo_1", "circle")
        + moved_count
        # a sign of zero is a bit
        + _record("t::c", "flat", -0.0, None, 0.0, 1.0, "bmo_2", "interval")
    )
    assert compare_reports.main([str(before), str(after), "--exact"]) == 1
    assert capsys.readouterr().out.splitlines()[-8:] == [
        "differs, report 1 of t::a: lower, upper, witness value",
        "differs, report 0 of t::b: evaluations",
        "differs, report 0 of t::c: lower, witness value",
        # per field: an upper gone has no relative move, and -0.0 against 0.0 none either
        "field lower: 2 of 4 paired reports differ; largest relative fall 0, rise 2.22e-16",
        "field upper: 1 of 4 paired reports differ; largest relative fall 0, rise 0",
        "field evaluations: 1 of 4 paired reports differ",
        "field witness value: 2 of 4 paired reports differ",
        "3 report(s) differ",
    ]
    # a file against itself differs nowhere, also next to a lower-drop gate
    assert compare_reports.main([str(before), str(before), "--exact", "--max-lower-drop", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["0 report(s) differ", "0 lower(s) fell by more than 0 relative"]
    # the gates report separately: no lower fell by more than 1e-12, yet the bits differ
    assert compare_reports.main([str(before), str(after), "--exact", "--max-lower-drop", "1e-12"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0 lower(s) fell by more than 1e-12 relative"


def test_compare_reports_exact_summarizes_each_field(tmp_path, capsys):
    # five paired reports: one lower falls by 1e-3 and one rises by 1e-2, an
    # upper falls by 0.25 alone, a witness and two evaluation counts move
    compare_reports = _load("compare_reports")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    rows = [(1.0, 2.0, 0.5, 1.0), (4.0, 8.0, 0.0, 1.0), (2.0, 4.0, 0.0, 1.0), (1.0, None, 0.0, 0.5), (3.0, 3.0, 0.0, 0.5)]
    moved = [(1.0 - 1e-3, 2.0, 0.5, 1.0), (4.0, 6.0, 0.0, 1.0), (2.0 * 1.01, 4.0, 0.0, 1.0), (1.0, None, 0.25, 0.5), (3.0, 3.0, 0.0, 0.5)]

    def write(path, rows, counts):
        path.write_text("".join(
            _record("t::a", "flat", lower, upper, wl, wr, "bmo_2", "interval").replace("\t7\t", f"\t{count}\t")
            for (lower, upper, wl, wr), count in zip(rows, counts)
        ))

    write(before, rows, [7, 7, 7, 7, 7])
    write(after, moved, [7, 6, 7, 5, 7])
    assert compare_reports.main([str(before), str(after), "--exact"]) == 1
    assert capsys.readouterr().out.splitlines()[-7:] == [
        "differs, report 3 of t::a: witness, evaluations",
        "field lower: 2 of 5 paired reports differ; largest relative fall 0.001, rise 0.01",
        "field upper: 1 of 5 paired reports differ; largest relative fall 0.25, rise 0",
        "field witness: 1 of 5 paired reports differ",
        "field evaluations: 2 of 5 paired reports differ",
        "field witness value: 2 of 5 paired reports differ",
        "4 report(s) differ",
    ]
    # nothing differs: no field line
    assert compare_reports.main([str(before), str(before), "--exact"]) == 0
    assert not any(line.startswith("field ") for line in capsys.readouterr().out.splitlines())

def test_compare_reports_exact_compares_query_records(tmp_path, capsys):
    compare_reports = _load("compare_reports")

    def query(test, left, values, nodes):
        return "\t".join((test, "query", left.hex(), "0x1p+0", values, "0x1p-1,0x1p-1", "2", str(nodes), "0x0p+0")) + "\n"

    report = _record("t::a", "dag", 1.0, 2.0, 0.0, 0.5, "bmo_2", "circle")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    before.write_text(
        query("t::a", 0.0, "0x0p+0,0x1p+0", 5) + report + query("t::a", 0.25, "0x0p+0,0x1p+0", 5)
        + query("t::b", 0.5, "0x0p+0,0x1p+0", 3)
    )
    # the second query of t::a moved a value by one ulp and visited one node more; t::b lost its query
    after.write_text(
        query("t::a", 0.0, "0x0p+0,0x1p+0", 5) + report
        + query("t::a", 0.25, "0x0p+0,0x1.0000000000001p+0", 6)
    )
    assert compare_reports.main([str(before), str(after), "--exact"]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "differs, query 1 of t::a: distribution, nodes visited",
        "1 query record(s) differ; only in the first file: 1, only in the second: 0",
        "0 report(s) differ",
    ]
    assert compare_reports.main([str(before), str(before), "--exact"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == "0 query record(s) differ; only in the first file: 0, only in the second: 0"


def test_compare_reports_exact_fails_on_records_of_a_shared_test_in_one_file(tmp_path, capsys):
    compare_reports = _load("compare_reports")

    def query(test, left):
        return "\t".join((test, "query", left.hex(), "0x1p+0", "0x0p+0", "0x1p+0", "1", "1", "0x0p+0")) + "\n"

    report = _record("t::a", "dag", 1.0, 2.0, 0.0, 0.5, "bmo_2", "circle")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    # t::a loses its second report in after; t::b is in before only, t::c in after only
    before.write_text(query("t::a", 0.0) + report + report + query("t::b", 0.0) + report.replace("t::a", "t::b"))
    after.write_text(query("t::a", 0.0) + report + query("t::c", 0.0))
    assert compare_reports.main([str(before), str(after), "--exact"]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "0 query record(s) differ; only in the first file: 1, only in the second: 1",
        "unpaired, report 1 of t::a: only in the first file",
        "0 report(s) differ",
    ]
    # a vanished query record of a shared test fails as well, either way round
    after.write_text(report + report + report.replace("t::a", "t::b") + query("t::b", 0.0) + query("t::b", 0.5))
    assert compare_reports.main([str(before), str(after), "--exact"]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "unpaired, query 0 of t::a: only in the first file",
        "unpaired, query 1 of t::b: only in the second file",
        "0 query record(s) differ; only in the first file: 1, only in the second: 1",
        "0 report(s) differ",
    ]
    # tests found in one file only are counted and do not fail
    after.write_text(query("t::a", 0.0) + report + report)
    assert compare_reports.main([str(before), str(after), "--exact"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "0 query record(s) differ; only in the first file: 1, only in the second: 0",
        "0 report(s) differ",
    ]


def test_compare_reports_exact_compares_membership_records(tmp_path, capsys):
    compare_reports = _load("compare_reports")

    def membership(test, passed, margin, path):
        return "\t".join((test, "membership", str(passed), margin.hex(), str(path))) + "\n"

    report = _record("t::a", "flat", 1.0, None, 0.0, 0.5, "bmo_1", "interval")
    before = tmp_path / "before.tsv"
    after = tmp_path / "after.tsv"
    before.write_text(
        membership("t::a", True, -0.5, None) + report + membership("t::a", True, -0.25, None)
        + membership("t::b", False, 0.125, [0, 1])
    )
    # t::a's second margin moved by one ulp and t::a validated once more; t::b fails elsewhere
    after.write_text(
        membership("t::a", True, -0.5, None) + report + membership("t::a", True, math.nextafter(-0.25, 0.0), None)
        + membership("t::a", True, -1.0, None) + membership("t::b", False, 0.125, [])
    )
    assert compare_reports.main([str(before), str(after), "--exact"]) == 1
    out = capsys.readouterr().out.splitlines()
    # membership lines are neither search reports nor query records
    assert "reports only in the first file: 0, only in the second: 0" in out
    assert out[-6:] == [
        "differs, membership 1 of t::a: worst margin",
        "differs, membership 0 of t::b: offending path",
        "unpaired, membership 2 of t::a: only in the second file",
        "2 membership record(s) differ; only in the first file: 0, only in the second: 1",
        "0 query record(s) differ; only in the first file: 0, only in the second: 0",
        "0 report(s) differ",
    ]
    assert compare_reports.main([str(before), str(before), "--exact"]) == 0
    assert capsys.readouterr().out.splitlines()[-3] == "0 membership record(s) differ; only in the first file: 0, only in the second: 0"


def test_workload_reports_records_one_report_per_op(tmp_path, capsys):
    from meanosc import search

    saved = search._search
    workload_reports, compare_reports = _load("workload_reports"), _load("compare_reports")
    out = tmp_path / "ops.tsv"
    assert workload_reports.main([str(out), "--workload", "flat_small", "--seeds", "1"]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    # 3 step functions with 7 ops each and 2 small circles, all searched flat: no query records
    assert len(rows) == 23
    assert [row[0].split("::")[1].split(":")[0] for row in rows] == [str(i) for i in range(23)]
    assert all(len(row) == 10 and row[0].startswith("flat_small[seed=1]::") for row in rows)
    assert rows[0][0] == "flat_small[seed=1]::0:bmo_norm/flat/p=1" and rows[0][8] == "bmo_1"
    assert search._search is saved
    assert compare_reports.main([str(out), str(out), "--exact"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 report(s) differ"


def test_dag_pass_profile_counts_the_search_passes(capsys):
    from meanosc import construct, search

    saved = construct._pass, search.dag_query, search._DagSearch.raws
    profile = _load("dag_pass_profile")
    assert profile.main(["--depth", "2", "--p", "1,2", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["search", "kind", "calls", "passes", "runs/pass", "ranges/run", "us/call", "us/pass", "us/run"]
    rows = [line.split() for line in lines[1:]]
    assert [(row[3], row[4]) for row in rows] == [("p=1", "batched"), ("p=1", "single"), ("p=2", "batched"), ("p=2", "single")]
    for row in rows:
        calls, passes = int(row[5]), int(row[6])
        # verify_jn's refine_iters=24 makes 6 golden rounds per phase;
        # single queries are the embedded child witnesses
        assert calls == (2 * 6 + 1 if row[4] == "batched" else 5)
        # a batch this small is one pass, a chunk, per call
        assert passes == calls
        assert all(float(x) > 0 for x in row[7:])
    # the wrapped functions are restored
    assert (construct._pass, search.dag_query, search._DagSearch.raws) == saved
