"""Byte-identical `check` reports on a fixed set of seeded maps.

`check --conditions P` runs on multiset maps and `check --conditions M` on
symbol maps, 5-12 leaves each: the maps of random labelled trees over A,B,C
(multiset maps from rooted trees, symbol maps from unrooted ones), a one-cell
mutant of each, and random maps over 4 or 5 symbols.  The sha256 of every
text and JSON report, with its exit code, must equal the digest recorded in
tests/data/golden_check_reports.json.  A change that is meant to alter
reports regenerates the file with

    PYTHONPATH=src python tests/test_golden_check_reports.py

and says why in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from trisym import cli
from trisym.maps import save_three_way_map, three_way_from_rooted, three_way_from_unrooted
from trisym.trees import ROOTED, UNROOTED

sys.path.insert(0, str(Path(__file__).parent))
from test_trees import random_labelled_tree  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "golden_check_reports.json"
SYMBOLS = ("A", "B", "C")
FORMATS = ("text", "json")


def _values(codomain, symbols):
    if codomain == "symbol":
        return list(symbols)
    return ["+".join(c) for c in combinations_with_replacement(symbols, 3)]


def _random_map(rng, codomain, leaves, symbols):
    """A map with every value drawn at random, in the tree-file row order."""
    names = [str(i + 1) for i in range(leaves)]
    values = _values(codomain, symbols)
    rows = ["x y z value"]
    for i, x in enumerate(names):
        for j in range(i + 1, leaves):
            for z in names[j + 1:]:
                rows.append(f"{x} {names[j]} {z} {rng.choice(values)}")
    return "\n".join(rows) + "\n"


def _cases():
    """(name, codomain, map text): per codomain 8 clean maps, a one-cell
    mutant of each, and 6 random maps."""
    out = []
    for seed in range(16):
        rng = random.Random(3000 + seed)
        rooted = seed % 2 == 0
        codomain = "multiset" if rooted else "symbol"
        leaves = rng.randint(5, 12)
        # an unrooted random tree has one leaf more than asked for
        lt = random_labelled_tree(4000 + seed, leaves if rooted else leaves - 1,
                                  ROOTED if rooted else UNROOTED,
                                  symbol_names=SYMBOLS, discriminating=seed % 4 < 2)
        d = three_way_from_rooted(lt) if rooted else three_way_from_unrooted(lt)
        text = save_three_way_map(d)
        lines = text.splitlines(keepends=True)
        row = rng.randrange(1, len(lines))
        *names, value = lines[row].split()
        other = [v for v in _values(codomain, SYMBOLS) if v != value]
        lines[row] = " ".join(names + [rng.choice(other)]) + "\n"
        out.append((f"{seed:02d}-{codomain}-{leaves}-clean", codomain, text))
        out.append((f"{seed:02d}-{codomain}-{leaves}-mutant", codomain, "".join(lines)))
    for seed in range(12):
        rng = random.Random(5000 + seed)
        codomain = "multiset" if seed % 2 == 0 else "symbol"
        leaves = 5 + seed * 7 // 11
        symbols = ("A", "B", "C", "D", "E")[:4 + seed // 2 % 2]
        out.append((f"{seed:02d}-{codomain}-{leaves}-random{len(symbols)}", codomain,
                    _random_map(rng, codomain, leaves, symbols)))
    return out


CASES = _cases()
RUNS = [(name, codomain, text, fmt) for name, codomain, text in CASES for fmt in FORMATS]


def _digest(codomain: str, text: str, fmt: str, workdir: Path) -> str:
    src, out = workdir / "map.tsv", workdir / "report"
    src.write_text(text)
    family = "P" if codomain == "multiset" else "M"
    code = cli.main(["check", str(src), "--conditions", family, "--format", fmt,
                     "-o", str(out)])
    return hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_the_cases_cover_both_families_clean_mutant_and_random_maps(recorded):
    assert len(CASES) == 44 and len(set(c[2] for c in CASES)) == 44
    for codomain in ("symbol", "multiset"):
        kinds = [c[0].split("-")[-1] for c in CASES if c[1] == codomain]
        assert kinds.count("clean") == kinds.count("mutant") == 8
        assert {k for k in kinds if k.startswith("random")} == {"random4", "random5"}
    leaves = [int(c[0].split("-")[2]) for c in CASES]
    assert min(leaves) == 5 and max(leaves) == 12
    assert set(recorded) == {f"{name} {fmt}" for name, _, _, fmt in RUNS}


@pytest.mark.parametrize("name, codomain, text, fmt", RUNS,
                         ids=[f"{r[0]}-{r[3]}" for r in RUNS])
def test_check_report_digest(name, codomain, text, fmt, recorded, tmp_path):
    assert _digest(codomain, text, fmt, tmp_path) == recorded[f"{name} {fmt}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name} {fmt}": _digest(codomain, text, fmt, Path(tmp))
                   for name, codomain, text, fmt in RUNS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
