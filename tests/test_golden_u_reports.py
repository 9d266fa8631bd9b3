"""Byte-identical `check --conditions U` reports on a fixed set of seeded
pair maps.

The maps have 5-12 leaves: the pair maps of random rooted labelled trees
over A,B,C, a one-cell mutant of each, and random pair maps over 3, 4 or 5
symbols.  The sha256 of every text and JSON report, with its exit code,
must equal the digest recorded in tests/data/golden_u_reports.json.  A
change that is meant to alter reports regenerates the file with

    PYTHONPATH=src python tests/test_golden_u_reports.py

and says why in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from trisym import cli
from trisym.maps import save_two_way_map, two_way_from_tree
from trisym.trees import ROOTED

sys.path.insert(0, str(Path(__file__).parent))
from test_trees import random_labelled_tree  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "golden_u_reports.json"
SYMBOLS = ("A", "B", "C", "D", "E")
FORMATS = ("text", "json")


def _random_map(rng, leaves, symbols):
    """A pair map with every value drawn at random, in the saved row order."""
    names = [str(i + 1) for i in range(leaves)]
    rows = ["x y value"] + [f"{x} {y} {rng.choice(symbols)}"
                            for i, x in enumerate(names) for y in names[i + 1:]]
    return "\n".join(rows) + "\n"


def _cases():
    """(name, map text): 12 tree maps, a one-cell mutant of each, and 10
    random maps."""
    out = []
    for seed in range(12):
        rng = random.Random(6000 + seed)
        leaves = 5 + seed * 7 // 11
        lt = random_labelled_tree(6100 + seed, leaves, ROOTED, symbol_names=SYMBOLS[:3],
                                  discriminating=seed % 3 > 0)
        text = save_two_way_map(two_way_from_tree(lt))
        lines = text.splitlines(keepends=True)
        row = rng.randrange(1, len(lines))
        *names, value = lines[row].split()
        lines[row] = " ".join(names + [rng.choice([s for s in SYMBOLS[:3] if s != value])]) + "\n"
        out.append((f"{seed:02d}-{leaves}-clean", text))
        out.append((f"{seed:02d}-{leaves}-mutant", "".join(lines)))
    for seed in range(10):
        rng = random.Random(6200 + seed)
        leaves = 5 + seed * 7 // 9
        symbols = SYMBOLS[:3 + seed % 3]
        out.append((f"{seed:02d}-{leaves}-random{len(symbols)}",
                    _random_map(rng, leaves, symbols)))
    return out


CASES = _cases()
RUNS = [(name, text, fmt) for name, text in CASES for fmt in FORMATS]


def _digest(text: str, fmt: str, workdir: Path) -> str:
    src, out = workdir / "map.tsv", workdir / "report"
    src.write_text(text)
    code = cli.main(["check", str(src), "--conditions", "U", "--format", fmt,
                     "-o", str(out)])
    return hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_the_cases_cover_clean_mutant_and_random_maps(recorded):
    assert len(CASES) == 34 and len(set(c[1] for c in CASES)) == 34
    kinds = [c[0].split("-")[-1] for c in CASES]
    assert kinds.count("clean") == kinds.count("mutant") == 12
    assert {k for k in kinds if k.startswith("random")} == {"random3", "random4", "random5"}
    leaves = [int(c[0].split("-")[1]) for c in CASES]
    assert min(leaves) == 5 and max(leaves) == 12
    assert set(recorded) == {f"{name} {fmt}" for name, _, fmt in RUNS}


@pytest.mark.parametrize("name, text, fmt", RUNS, ids=[f"{r[0]}-{r[2]}" for r in RUNS])
def test_u_report_digest(name, text, fmt, recorded, tmp_path):
    assert _digest(text, fmt, tmp_path) == recorded[f"{name} {fmt}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{name} {fmt}": _digest(text, fmt, Path(tmp)) for name, text, fmt in RUNS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
