"""Compare two ``pytest --record-reports`` files search report by search report.

Usage, from the root of a checkout::

    python3 tools/compare_reports.py BEFORE.tsv AFTER.tsv [--max-lower-drop REL] [--list-witness-moves] [--exact] [--objective NAME[,NAME]]

The k-th search report a test records in BEFORE is paired with the k-th
one the same test records in AFTER, and so are its k-th
``construct.query`` record and its k-th membership validation.  For
every objective and carrier the script prints how many pairs there are, the largest relative drop and rise of ``lower`` and of
``upper`` from BEFORE to AFTER, and how many pairs changed witness; then
the pair with the largest relative drop of ``lower``, and the number of
reports found in only one file.  A relative change is
``(after - before) / |before|``, or the plain difference when BEFORE is
0; an ``upper`` of None on either side is not compared.

With ``--max-lower-drop REL`` the script then lists every pair whose
``lower`` fell by more than REL relative, and exits with status 1 if
there is one.  With ``--list-witness-moves`` it lists every pair whose
witness changed, with both witnesses and the relative move of ``lower``,
so that a witness that moved between tied candidates (a move of 0) stands
apart from one that moved with its value.  With ``--exact`` it lists
every pair of membership records that differs in any field (passed,
worst margin, offending path), then every pair of query records that
differs in any field (ends, distribution, depth, nodes visited, partial
end weight), with one line for each test whose differing membership or
query records are the same records in another order (its records,
sorted, are equal in both files), then every pair
of reports whose ``lower``, ``upper``, witness, evaluation count or
witness value differs in any bit, naming the fields, then one line per
field that some paired report differs in: how many do, and for
``lower`` and ``upper`` the largest relative fall and rise among them.
It exits with status 1 if there is a difference of any kind.  It also
lists, and exits with status 1 for, every record or report that only
one file holds of a test that both files hold; a test found in one file only is counted, not
failed.  With ``--objective
NAME[,NAME]`` (objective names as recorded, e.g. ``bmo_3,bmo_1.5``) the
summary and every listing of reports cover only the reports of those
objectives; membership and query records are compared whatever the
objective.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict


_RECORD_KINDS = ("query", "membership")


def read_reports(path: str, kind: str | None = None) -> dict:
    """``(test id, k) -> fields`` of the k-th search report each test recorded, or of its k-th record of ``kind`` (``query`` or ``membership``)."""
    out, seen = {}, defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if (fields[1] if fields[1] in _RECORD_KINDS else None) != kind:
                continue
            test = fields[0]
            out[(test, seen[test])] = fields
            seen[test] += 1
    return out


def only_objectives(reports: dict, names) -> dict:
    """The reports of ``reports`` whose objective is one of ``names``."""
    return {key: fields for key, fields in reports.items() if fields[8] in names}


def _value(text: str) -> float | None:
    return None if text == "None" else float.fromhex(text)


def _relative(before: float, after: float) -> float:
    return (after - before) / abs(before) if before else after - before


class _Group:
    def __init__(self):
        self.pairs = 0
        self.witness_changes = 0
        self.moves = {"lower": [0.0, 0.0], "upper": [0.0, 0.0]}  # largest drop, largest rise

    def add(self, before: list, after: list):
        self.pairs += 1
        self.witness_changes += before[4:6] != after[4:6]
        for name, col in (("lower", 2), ("upper", 3)):
            a, b = _value(before[col]), _value(after[col])
            if a is None or b is None:
                continue
            rel = _relative(a, b)
            move = self.moves[name]
            move[0], move[1] = max(move[0], -rel), max(move[1], rel)


def lower_drops(before: dict, after: dict, rel: float) -> list:
    """``(relative drop, test id, k)`` of every paired report whose ``lower`` fell by more than ``rel``."""
    drops = []
    for key in sorted(before.keys() & after.keys()):
        move = _relative(float.fromhex(before[key][2]), float.fromhex(after[key][2]))
        if -move > rel:
            drops.append((-move, *key))
    return drops


def witness_moves(before: dict, after: dict) -> list:
    """``(test id, k, witness before, witness after, relative move of lower)`` of every paired report whose witness changed."""
    moves = []
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        if b[4:6] != a[4:6]:
            wb, wa = (tuple(float.fromhex(x) for x in fields[4:6]) for fields in (b, a))
            moves.append((*key, wb, wa, _relative(float.fromhex(b[2]), float.fromhex(a[2]))))
    return moves


# the fields --exact compares, by column; floats are recorded as float.hex text, equal exactly when their bits are
_EXACT_FIELDS = (("lower", (2,)), ("upper", (3,)), ("witness", (4, 5)), ("evaluations", (6,)), ("witness value", (7,)))
_QUERY_FIELDS = (("ends", (2, 3)), ("distribution", (4, 5)), ("depth", (6,)), ("nodes visited", (7,)), ("partial end weight", (8,)))
_MEMBERSHIP_FIELDS = (("passed", (2,)), ("worst margin", (3,)), ("offending path", (4,)))


def exact_differences(before: dict, after: dict, fields=_EXACT_FIELDS) -> list:
    """``(test id, k, names of the differing fields)`` of every paired record that differs in any bit."""
    out = []
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        names = [name for name, cols in fields if any(b[c] != a[c] for c in cols)]
        if names:
            out.append((*key, names))
    return out


def field_summary(before: dict, after: dict, diffs: list) -> list:
    """One line per field that some report of ``diffs`` (see ``exact_differences``) differs in: the count, and the largest relative fall and rise of ``lower`` and ``upper``."""
    lines = []
    for name, cols in _EXACT_FIELDS:
        moved = [(test, k) for test, k, names in diffs if name in names]
        if not moved:
            continue
        line = f"field {name}: {len(moved)} of {len(before.keys() & after.keys())} paired reports differ"
        if name in ("lower", "upper"):
            pairs = ((_value(before[key][cols[0]]), _value(after[key][cols[0]])) for key in moved)
            rels = [_relative(b, a) for b, a in pairs if b is not None and a is not None]
            line += f"; largest relative fall {max([0.0, *(-r for r in rels)]):.3g}, rise {max([0.0, *rels]):.3g}"
        lines.append(line)
    return lines


def reorderings(before: dict, after: dict, diffs: list) -> list:
    """``(test id, count)`` of every test of ``diffs`` (see ``exact_differences``) whose records, sorted, are equal in both files."""
    counts = Counter(test for test, _, _ in diffs)
    sides = (defaultdict(list), defaultdict(list))
    for side, records in zip(sides, (before, after)):
        for (test, _), fields in records.items():
            if test in counts:
                side[test].append(fields)
    return [(test, n) for test, n in sorted(counts.items()) if sorted(sides[0][test]) == sorted(sides[1][test])]


def unpaired(before: dict, after: dict, tests) -> list:
    """``(test id, k, "first" or "second")`` of every record of a test in ``tests`` that only that file holds."""
    return sorted((*key, "first" if key in before else "second") for key in before.keys() ^ after.keys() if key[0] in tests)


def compare(before: dict, after: dict) -> str:
    groups: dict = defaultdict(_Group)
    worst = (0.0, None)
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        groups[(b[8], b[9])].add(b, a)
        rel = _relative(float.fromhex(b[2]), float.fromhex(a[2]))
        if rel < worst[0]:
            worst = (rel, key)
    lines = [
        f"{'objective':<10} {'carrier':<9} {'pairs':>6} {'lower drop':>11} {'lower rise':>11} "
        f"{'upper drop':>11} {'upper rise':>11} {'witnesses':>9}"
    ]
    for (objective, carrier), g in sorted(groups.items()):
        (ld, lr), (ud, ur) = g.moves["lower"], g.moves["upper"]
        lines.append(
            f"{objective:<10} {carrier:<9} {g.pairs:>6} {ld:>11.3g} {lr:>11.3g} "
            f"{ud:>11.3g} {ur:>11.3g} {g.witness_changes:>9}"
        )
    if worst[1] is None:
        lines.append("no lower fell")
    else:
        test, k = worst[1]
        lines.append(f"largest lower drop: {-worst[0]:.3g} relative, report {k} of {test}")
    lines.append(f"reports only in the first file: {len(before.keys() - after.keys())}, "
                 f"only in the second: {len(after.keys() - before.keys())}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="record file of the earlier run")
    parser.add_argument("after", help="record file of the later run")
    parser.add_argument("--max-lower-drop", type=float, metavar="REL", default=None,
                        help="exit with status 1, listing them, if some lower fell by more than REL relative")
    parser.add_argument("--list-witness-moves", action="store_true",
                        help="list every pair whose witness changed, with the relative move of its lower")
    parser.add_argument("--exact", action="store_true",
                        help="exit with status 1, listing them, if some paired record differs in any bit "
                             "or only one file holds a record of a test in both")
    parser.add_argument("--objective", metavar="NAME[,NAME]", default=None,
                        help="compare only the reports of these objectives, e.g. bmo_3,bmo_1.5")
    args = parser.parse_args(argv)
    before, after = read_reports(args.before), read_reports(args.after)
    if args.objective is not None:
        names = set(args.objective.split(","))
        before, after = only_objectives(before, names), only_objectives(after, names)
    print(compare(before, after))
    if args.list_witness_moves:
        moves = witness_moves(before, after)
        for test, k, (bl, br), (al, ar), move in moves:
            print(f"witness move, report {k} of {test}: [{bl!r}, {br!r}] -> [{al!r}, {ar!r}], lower moved {move:.3g} relative")
        print(f"{len(moves)} witness(es) moved")
    status = 0
    if args.exact:
        records = {kind: (read_reports(args.before, kind), read_reports(args.after, kind)) for kind in _RECORD_KINDS}
        files = [(before, after), *records.values()]
        shared = {test for b, _ in files for test, _ in b} & {test for _, a in files for test, _ in a}
        for kind, fields in (("membership", _MEMBERSHIP_FIELDS), ("query", _QUERY_FIELDS)):
            rb, ra = records[kind]
            diffs, lost = exact_differences(rb, ra, fields), unpaired(rb, ra, shared)
            for test, k, names in diffs:
                print(f"differs, {kind} {k} of {test}: {', '.join(names)}")
            for test, k, where in lost:
                print(f"unpaired, {kind} {k} of {test}: only in the {where} file")
            for test, n in reorderings(rb, ra, diffs):
                print(f"same records in another order, {kind} of {test}: {n} differ by position")
            print(f"{len(diffs)} {kind} record(s) differ; only in the first file: {len(rb.keys() - ra.keys())}, "
                  f"only in the second: {len(ra.keys() - rb.keys())}")
            status = 1 if diffs or lost else status
        diffs, lost = exact_differences(before, after), unpaired(before, after, shared)
        for test, k, names in diffs:
            print(f"differs, report {k} of {test}: {', '.join(names)}")
        for test, k, where in lost:
            print(f"unpaired, report {k} of {test}: only in the {where} file")
        for line in field_summary(before, after, diffs):
            print(line)
        print(f"{len(diffs)} report(s) differ")
        status = 1 if diffs or lost else status
    if args.max_lower_drop is not None:
        drops = lower_drops(before, after, args.max_lower_drop)
        for drop, test, k in drops:
            print(f"lower drop {drop:.3g} relative, report {k} of {test}")
        print(f"{len(drops)} lower(s) fell by more than {args.max_lower_drop:g} relative")
        status = 1 if drops else status
    return status


if __name__ == "__main__":
    sys.exit(main())
