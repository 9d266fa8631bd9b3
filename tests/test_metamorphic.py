"""Verdicts that must not depend on the order of a map file's rows or on
the names of its symbols, at 7-16 leaves.

Seeded maps of random discriminating labelled trees over A, B, C (rooted
multiset maps and unrooted plain-symbol maps), clean and with 2 or 4 cells
changed, are written in saved form.  Each file's twin has its rows
shuffled, which changes the ground order the loader reads, and its symbols
renamed A->C, B->A, C->B, which gives every symbol another digit in the
packed five-point codes.  On the twin, reconstruct's exit code and
cross-validate's agreement must be the original's, and check's violations,
as a multiset of (family, witness set), must be the same.
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from trisym import (KIND_MULTISET, ThreeWayMap, load_three_way_map, save_three_way_map,
                    three_way_from_rooted, three_way_from_unrooted)
from trisym.cli import main
from trisym.trees import ROOTED, UNROOTED

sys.path.insert(0, str(Path(__file__).parent))
from conftest import multiset_alphabet  # noqa: E402
from test_trees import random_labelled_tree  # noqa: E402

CASES = 12  # maps per codomain and number of changed cells
RENAME = str.maketrans("ABC", "CAB")
# per codomain: tree flavor, map construction, condition family
CODOMAINS = {"multiset": (ROOTED, three_way_from_rooted, "P"),
             "symbol": (UNROOTED, three_way_from_unrooted, "M")}


def _map(codomain: str, changed: int, rng: random.Random) -> ThreeWayMap:
    flavor, construct, _ = CODOMAINS[codomain]
    lt = random_labelled_tree(rng.randrange(10**9), rng.randint(7, 16), flavor,
                              ("A", "B", "C"), discriminating=True)
    d = construct(lt)
    values = list(d.values)
    alphabet = multiset_alphabet(d.symbols) if d.kind == KIND_MULTISET else list(d.symbols)
    for k in rng.sample(range(len(values)), changed):
        values[k] = rng.choice([v for v in alphabet if v is not values[k]])
    return ThreeWayMap(d.kind, d.ground, values, d.symbols)


def _twin(text: str, rng: random.Random) -> str:
    """text's rows shuffled and its symbols renamed; leaf names are numbers,
    so renaming a row renames its value."""
    header, *rows = text.splitlines()
    rng.shuffle(rows)
    return "\n".join([header, *(row.translate(RENAME) for row in rows)]) + "\n"


def _answers(capsys, path: Path, codomain: str) -> tuple:
    """reconstruct's and cross-validate's exit codes, and check's violations
    as a multiset of (family, witness set)."""
    family = CODOMAINS[codomain][2]
    decided = main(["reconstruct", str(path), "--codomain", codomain])
    agreed = main(["cross-validate", str(path), "--codomain", codomain])
    capsys.readouterr()
    main(["check", str(path), "--conditions", family, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    faults = Counter((v["kind"], frozenset(v["witness"])) for v in report["violations"])
    return decided, agreed, faults


@pytest.mark.parametrize("changed", [0, 2, 4])
@pytest.mark.parametrize("codomain", sorted(CODOMAINS))
def test_shuffled_rows_and_renamed_symbols_keep_every_verdict(capsys, tmp_path, codomain,
                                                              changed):
    rng = random.Random(f"{codomain}-{changed}")
    decided, reordered = Counter(), 0
    for i in range(CASES):
        d = _map(codomain, changed, rng)
        text = save_three_way_map(d)
        twin = _twin(text, rng)
        original, renamed = tmp_path / f"{i}.tsv", tmp_path / f"{i}-twin.tsv"
        original.write_text(text)
        renamed.write_text(twin)
        want = _answers(capsys, original, codomain)
        assert _answers(capsys, renamed, codomain) == want, (i, text)
        assert want[1] == 0  # every route agrees
        assert (want[0] == 0) == (not want[2])
        decided[want[0]] += 1
        reordered += load_three_way_map(twin, codomain).ground != d.ground
    assert decided == ({0: CASES} if changed == 0 else {1: CASES}), decided
    assert reordered > CASES // 2
