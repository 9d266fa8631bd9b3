"""`reconstruct` reports from the symbol split against the triplet route.

The decision builds the tree of a pair map by splitting it on symbols.  The
paper's route extracts triplets, runs BUILD and reads the labels off BUILD's
tree (test_reconstruct.reference_tree_from_two_way).  On seeded maps of
5-24 leaves in both codomains, every `reconstruct` report, in text and JSON,
must be byte-identical, with the same exit code, to the report made with the
triplet route patched in.
"""

import random
from collections import Counter
from math import comb

import pytest

from trisym import cli, reconstruct
from trisym.maps import (KIND_SYMBOL, ThreeWayMap, TwoWayMap,
                         save_three_way_map, three_way_from_rooted, three_way_from_two_way,
                         three_way_from_unrooted, two_way_from_tree)
from trisym.trees import ROOTED, UNROOTED

from conftest import multiset_alphabet
from test_reconstruct import reference_tree_from_two_way
from test_trees import random_labelled_tree

MAPS = 520


def _changed(d: ThreeWayMap, rng: random.Random, slots: int) -> ThreeWayMap:
    """d with one of its first `slots` values changed to another value."""
    values = list(d.values)
    k = rng.randrange(slots)
    other = list(d.symbols) if d.kind == KIND_SYMBOL else multiset_alphabet(d.symbols)
    values[k] = rng.choice([v for v in other if v != values[k]])
    return ThreeWayMap(d.kind, d.ground, values, d.symbols)


def seeded_map(i: int) -> tuple[str, str]:
    """(codomain, map text) of the i-th map: in turn a clean symbol map, a
    symbol mutant changed in a triple with the projection leaf, a symbol
    mutant changed anywhere, a clean multiset map, a multiset mutant, and
    multiset maps assembled from a random pair map and from a tree's pair
    map with one cell changed."""
    rng = random.Random(9000 + i)
    leaves = rng.randint(5, 24)
    names = ("A", "B", "C", "D")[:rng.randint(2, 4)]
    kind = i % 7
    if kind < 3:
        lt = random_labelled_tree(rng.randrange(10**9), leaves - 1, UNROOTED, names,
                                  discriminating=rng.random() < 0.5)
        d = three_way_from_unrooted(lt)
        if kind == 1:
            d = _changed(d, rng, comb(leaves - 1, 2))
        elif kind == 2:
            d = _changed(d, rng, len(d.values))
        return "symbol", save_three_way_map(d)
    lt = random_labelled_tree(rng.randrange(10**9), leaves, ROOTED, names,
                              discriminating=rng.random() < 0.5)
    if kind < 5:
        d = three_way_from_rooted(lt)
        return "multiset", save_three_way_map(d if kind == 3 else
                                              _changed(d, rng, len(d.values)))
    d2 = two_way_from_tree(lt)
    values = list(d2.values)
    if kind == 5:
        values = [rng.choice(list(d2.symbols)) for _ in values]
    else:
        k = rng.randrange(len(values))
        values[k] = rng.choice([s for s in d2.symbols if s != values[k]])
    return "multiset", save_three_way_map(three_way_from_two_way(
        TwoWayMap(d2.ground, values, d2.symbols)))


def _reports(tmp_path, capsys) -> list[tuple[int, str, str]]:
    out = []
    src = tmp_path / "map.tsv"
    for i in range(MAPS):
        codomain, text = seeded_map(i)
        src.write_text(text)
        for fmt in ("text", "json"):
            code = cli.main(["reconstruct", str(src), "--codomain", codomain,
                             "--format", fmt])
            got = capsys.readouterr()
            out.append((code, got.out, got.err))
    return out


@pytest.mark.slow
def test_reconstruct_reports_match_the_triplet_route(tmp_path, capsys, monkeypatch):
    split = _reports(tmp_path, capsys)
    monkeypatch.setattr(reconstruct, "_tree_from_two_way", reference_tree_from_two_way)
    triplet_route = _reports(tmp_path, capsys)
    assert len(split) == 2 * MAPS >= 1000
    for k, (got, want) in enumerate(zip(split, triplet_route)):
        assert got == want, f"map {k // 2}, {('text', 'json')[k % 2]} report"
    stages = Counter(line.split(": ", 1)[1] for _, text, _ in split[::2]
                     for line in text.splitlines() if line.startswith("stage: "))
    representable = sum(code == 0 for code, _, _ in split[::2])
    assert representable > 50 and all(stages[s] > 20 for s in (
        reconstruct.STAGE_TRIPLETS, reconstruct.STAGE_BUILD, reconstruct.STAGE_LABELS)), stages
