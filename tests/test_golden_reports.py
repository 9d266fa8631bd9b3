"""Byte-identical CLI reports on a fixed set of seeded maps.

Each case is the map of a random labelled tree (multiset maps from rooted
trees, symbol maps from unrooted ones, 7-16 leaves) or a one-cell mutant of
it.  Further cases fail inside the pair-map decision, at triplet extraction
or BUILD: symbol maps changed in a triple that holds the projection leaf,
and multiset maps assembled from random pair maps.  The sha256 of every
`reconstruct` and `cross-validate` JSON report, with its exit code, must
equal the digest recorded in tests/data/golden_reports.json.  A change that is meant to alter reports
regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and says why in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from trisym import cli
from trisym.maps import (KIND_SYMBOL, ThreeWayMap, TwoWayMap, save_three_way_map,
                         three_way_from_rooted, three_way_from_two_way,
                         three_way_from_unrooted)
from trisym.symbols import SymbolTable
from trisym.trees import ROOTED, UNROOTED

sys.path.insert(0, str(Path(__file__).parent))
from test_trees import random_labelled_tree  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "golden_reports.json"
SYMBOLS = ("A", "B", "C")
MULTISETS = ("3A", "2A+B", "2A+C", "A+2B", "A+B+C", "A+2C", "3B", "2B+C", "B+2C", "3C")
# cross-validate runs the Theta(n^5) M or P conditions, so only the smaller maps
CROSS_VALIDATE_MAX_LEAVES = 12


def _cases():
    """(name, codomain, map text, leaves): 20 clean maps and a one-cell
    mutant of each."""
    out = []
    for seed in range(20):
        rng = random.Random(1000 + seed)
        rooted = seed % 2 == 0
        leaves = rng.randint(7, 16)
        # an unrooted random tree has one leaf more than asked for
        lt = random_labelled_tree(2000 + seed, leaves if rooted else leaves - 1,
                                  ROOTED if rooted else UNROOTED,
                                  symbol_names=SYMBOLS, discriminating=seed % 4 < 2)
        d = three_way_from_rooted(lt) if rooted else three_way_from_unrooted(lt)
        codomain = "multiset" if rooted else "symbol"
        text = save_three_way_map(d)
        lines = text.splitlines(keepends=True)
        row = rng.randrange(1, len(lines))
        *names, value = lines[row].split()
        other = [v for v in (MULTISETS if rooted else SYMBOLS) if v != value]
        lines[row] = " ".join(names + [rng.choice(other)]) + "\n"
        out.append((f"{seed:02d}-{codomain}-{leaves}-clean", codomain, text, leaves))
        out.append((f"{seed:02d}-{codomain}-{leaves}-mutant", codomain, "".join(lines), leaves))
    return out


CASES = _cases()


def _stage_cases():
    """(name, codomain, map text, leaves): per seed, a symbol map of a random
    tree changed in one triple that holds the first ground name, which the
    decision projects through, and a multiset map assembled from a random
    pair map; over A, B the pair maps can only fail BUILD, over A, B, C
    mostly triplet extraction."""
    out = []
    for seed in range(8):
        rng = random.Random(3000 + seed)
        names = SYMBOLS[:2 + seed % 2]
        leaves = rng.randint(7, 14)
        lt = random_labelled_tree(4000 + seed, leaves - 1, UNROOTED,
                                  symbol_names=names, discriminating=True)
        d = three_way_from_unrooted(lt)
        values = list(d.values)
        # the first C(n-1, 2) triples in combinations order hold ground[0]
        k = rng.randrange(comb(leaves - 1, 2))
        values[k] = rng.choice([s for s in d.symbols if s != values[k]])
        mutant = ThreeWayMap(KIND_SYMBOL, d.ground, values, d.symbols)
        table = SymbolTable(names)
        ground = [str(i + 1) for i in range(leaves)]
        pairs = TwoWayMap(ground, [rng.choice(list(table)) for _ in combinations(ground, 2)],
                          table)
        out.append((f"s{seed}-symbol-{leaves}-projection-mutant", "symbol",
                    save_three_way_map(mutant), leaves))
        out.append((f"s{seed}-multiset-{leaves}-assembled", "multiset",
                    save_three_way_map(three_way_from_two_way(pairs)), leaves))
    return out


STAGE_CASES = _stage_cases()


def _runs():
    for name, codomain, text, leaves in CASES + STAGE_CASES:
        yield name, "reconstruct", codomain, text
        if leaves <= CROSS_VALIDATE_MAX_LEAVES:
            yield name, "cross-validate", codomain, text


RUNS = list(_runs())


def _digest(command: str, codomain: str, text: str, workdir: Path) -> str:
    src, out = workdir / "map.tsv", workdir / "report.json"
    src.write_text(text)
    code = cli.main([command, str(src), "--codomain", codomain, "--format", "json",
                     "-o", str(out)])
    return hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_the_cases_cover_both_codomains_clean_maps_and_mutants(recorded):
    assert len(CASES) == 40 and len(set(c[2] for c in CASES)) == 40
    assert {c[1] for c in CASES} == {"symbol", "multiset"}
    assert min(c[3] for c in CASES) >= 7 and max(c[3] for c in CASES) <= 16
    assert set(recorded) == {f"{name} {command}" for name, command, _, _ in RUNS}


def test_the_stage_cases_fail_at_triplet_extraction_and_build_in_both_codomains(tmp_path):
    seen = set()
    for name, codomain, text, _ in STAGE_CASES:
        src, out = tmp_path / "map.tsv", tmp_path / "report.json"
        src.write_text(text)
        cli.main(["reconstruct", str(src), "--codomain", codomain, "--format", "json",
                  "-o", str(out)])
        seen.add((codomain, json.loads(out.read_text())["failure_stage"]))
    assert seen >= {(codomain, stage) for codomain in ("symbol", "multiset")
                    for stage in ("triplet-extraction", "build")}, seen


@pytest.mark.parametrize("name, command, codomain, text", RUNS,
                         ids=[f"{r[0]}-{r[1]}" for r in RUNS])
def test_report_digest(name, command, codomain, text, recorded, tmp_path):
    assert _digest(command, codomain, text, tmp_path) == recorded[f"{name} {command}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name} {command}": _digest(command, codomain, text, Path(tmp))
                   for name, command, codomain, text in RUNS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
