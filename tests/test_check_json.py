"""`check --format json` against json.dumps.

The report is written by `cli.check_report_json`, one format call per
violation.  Its text must be exactly what

    json.dumps({"conditions": family, "violations": [...]}, indent=2) + "\\n"

writes for the checker's own violation list, so json.dumps stays the
reference.  The maps are the U, M and P families' seeded tree maps, a
one-cell mutant of each and random maps, on 5-12 leaves.
"""

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from trisym import (
    KIND_MULTISET,
    SymbolTable,
    ThreeWayMap,
    TwoWayMap,
    check_three_way_ultrametric,
    check_tree_map,
    check_ultrametric,
    save_three_way_map,
    save_two_way_map,
    three_way_from_rooted,
    three_way_from_unrooted,
    two_way_from_tree,
)
from trisym.cli import check_report_json, main
from trisym.conditions import Violation
from trisym.trees import ROOTED, UNROOTED

sys.path.insert(0, str(Path(__file__).parent))
from conftest import multiset_alphabet, random_multiset_map, random_plain_map  # noqa: E402
from test_trees import random_labelled_tree  # noqa: E402

SYMBOLS = ("A", "B", "C")


def _reference(family, violations):
    return json.dumps({"conditions": family, "violations": [
        {"kind": v.kind, "witness": list(v.witness), "detail": v.detail}
        for v in violations]}, indent=2) + "\n"


def _random_pair_map(ground, table, rng):
    syms = list(table)
    return TwoWayMap(ground, [rng.choice(syms) for _ in combinations(ground, 2)], table)


# family: (tree flavor, map of a tree, random map, checker, saver)
FAMILIES = {
    "U": (ROOTED, two_way_from_tree, _random_pair_map, check_ultrametric, save_two_way_map),
    "M": (UNROOTED, three_way_from_unrooted, random_plain_map, check_tree_map,
          save_three_way_map),
    "P": (ROOTED, three_way_from_rooted, random_multiset_map, check_three_way_ultrametric,
          save_three_way_map),
}


def _mutant(d, rng):
    values = list(d.values)
    multiset = isinstance(d, ThreeWayMap) and d.kind == KIND_MULTISET
    alphabet = multiset_alphabet(d.symbols) if multiset else list(d.symbols)
    i = rng.randrange(len(values))
    values[i] = rng.choice([v for v in alphabet if v is not values[i]])
    if isinstance(d, TwoWayMap):
        return TwoWayMap(d.ground, values, d.symbols)
    return ThreeWayMap(d.kind, d.ground, values, d.symbols)


def _maps(family):
    """Per leaf count 5-12: a tree's map, a one-cell mutant of it, and a
    random map."""
    flavor, of_tree, random_map, _, _ = FAMILIES[family]
    rng = random.Random(8100 + ord(family))
    out = []
    for leaves in range(5, 13):
        # an unrooted random tree has one leaf more than asked for
        lt = random_labelled_tree(8200 + leaves, leaves if flavor == ROOTED else leaves - 1,
                                  flavor, symbol_names=SYMBOLS, discriminating=leaves % 3 > 0)
        d = of_tree(lt)
        ground = [str(i + 1) for i in range(leaves)]
        out += [d, _mutant(d, rng), random_map(ground, SymbolTable(SYMBOLS), rng)]
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_json_report_is_json_dumps_of_the_violations(tmp_path, family):
    *_, check, save = FAMILIES[family]
    src, out = tmp_path / "map.tsv", tmp_path / "report.json"
    counts = []
    for d in _maps(family):
        src.write_text(save(d))
        code = main(["check", str(src), "--conditions", family, "--format", "json",
                     "-o", str(out)])
        violations = check(d)
        assert out.read_text() == _reference(family, violations), (d.ground, d.values)
        assert code == (1 if violations else 0)
        counts.append(len(violations))
    assert counts.count(0) >= 8 and sum(c > 1 for c in counts) >= 8


def test_an_empty_report():
    for family in FAMILIES:
        assert check_report_json(family, []) == _reference(family, [])
        assert check_report_json(family, []).endswith('"violations": []\n}\n')


@pytest.mark.parametrize("kind, witness, detail", [
    ("P1", ("1", "2", "3", "4", "5"), 'a "quoted" pair'),
    ("U\\2", ("back\\slash", "tab\there", "q\"uote"), "tab\tand backslash\\"),
    ("M1", ("café", "ü", "x"), "non-ASCII éü中 and \U0001d11e"),
    ("P3", ("\x01", "new\nline", "\x7f"), "control \x00\x1f characters\r\n"),
])
def test_strings_are_escaped_as_json_dumps_escapes_them(kind, witness, detail):
    violations = [Violation(kind, witness, detail), Violation("P2", ("a", "b", "c"), "plain")]
    for family in ("P", 'a "family"'):
        got = check_report_json(family, violations)
        assert got == _reference(family, violations)
        assert got.isascii()
        assert json.loads(got)["violations"][0]["witness"] == list(witness)
