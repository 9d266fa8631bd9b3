"""Five-point pair recovery on packed slot codes against pair_counts.

The decision recovers each pair value D(p,q) of a multiset map from one
five-point combination, computed as integer row sums over the map's slot
codes.  The reference below computes every combination from pair_counts and
reads it with counts_singleton, window by window.  On seeded maps of 5-12
leaves (clean tree maps, their 1-3-cell mutants, maps assembled from random
pair maps, random maps, and maps over ten or more symbols), with and without
rotating windows, both must recover the same values or raise the same
PairContradictionError.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from trisym import SymbolTable
from trisym.conditions import counts_combination, pair_counts
from trisym.maps import (ThreeWayMap, TwoWayMap, three_way_from_rooted,
                         three_way_from_two_way)
from trisym.reconstruct import PairContradictionError, _recover_two_way_by_five_points
from trisym.trees import ROOTED

from conftest import counts_singleton, multiset_alphabet, random_multiset_map
from test_trees import random_labelled_tree

MAPS = 240
MANY = tuple(f"S{i}" for i in range(12))


def reference(d: ThreeWayMap, rotate: bool) -> TwoWayMap:
    """Pair recovery by pair_counts: {p,q} plus the first three other leaves
    of the first five, then, with rotate, each later run of three
    consecutive other leaves with wrap-around."""
    ground = d.ground
    values = []
    for p, q in combinations(ground, 2):
        e, f, g = [n for n in ground[:5] if n not in (p, q)][:3]
        counts = pair_counts(d, p, q, e, f, g)
        sym = counts_singleton(counts)
        others = [n for n in ground if n not in (p, q)] * 2
        for i in range(1, len(others) // 2) if rotate else ():
            if sym is not None:
                break
            sym = counts_singleton(pair_counts(d, p, q, *others[i:i + 3]))
        if sym is None:
            five = ",".join(n for n in ground if n in (p, q, e, f, g))
            raise PairContradictionError(
                (p, q), f"combination over ({five}) is "
                        f"{counts_combination(counts).text()}, not a single symbol")
        values.append(sym)
    return TwoWayMap(ground, values, d.symbols)


def _mutant(d: ThreeWayMap, rng: random.Random, cells: int) -> ThreeWayMap:
    values = list(d.values)
    alphabet = multiset_alphabet(d.symbols)
    for k in rng.sample(range(len(values)), cells):
        values[k] = rng.choice([v for v in alphabet if v is not values[k]])
    return ThreeWayMap(d.kind, d.ground, values, d.symbols)


def seeded_map(i: int) -> tuple[str, ThreeWayMap]:
    """(family, map) of the i-th map, on a shuffled ground order.  A map
    assembled from a pair map recovers that pair map; "many" maps are
    assembled from pair maps over twelve symbols, every other one with a
    cell changed."""
    rng = random.Random(15000 + i)
    family = ("clean", "mutant", "pairs", "random", "many")[i % 5]
    leaves = rng.randint(8 if family == "many" else 5, 12)
    names = MANY if family == "many" else ("A", "B", "C", "D")[:rng.randint(2, 4)]
    if family == "random":
        ground = [str(k) for k in range(1, leaves + 1)]
        return family, random_multiset_map(ground, SymbolTable(names[:3]), rng)
    lt = random_labelled_tree(rng.randrange(10**9), leaves, ROOTED, names,
                              discriminating=rng.random() < 0.5)
    ground = list(lt.leaf_order)
    rng.shuffle(ground)
    d = three_way_from_rooted(lt, ground)
    if family in ("pairs", "many"):
        syms = [d.symbols.intern(n) for n in names]
        values = [rng.choice(syms) for _ in combinations(ground, 2)]
        d = three_way_from_two_way(TwoWayMap(ground, values, d.symbols))
    if family == "mutant" or family == "many" and i % 2:
        d = _mutant(d, rng, rng.randint(1, 3))
    return family, d


def _outcome(recover, d: ThreeWayMap, rotate: bool):
    try:
        return "values", recover(d, rotate).values
    except PairContradictionError as err:
        return "error", err.pair, str(err)


@pytest.mark.parametrize("rotate", [False, True], ids=["first-window", "rotating"])
def test_coded_recovery_matches_pair_counts(rotate):
    seen = Counter()
    for i in range(MAPS):
        family, d = seeded_map(i)
        got = _outcome(_recover_two_way_by_five_points, d, rotate)
        want = _outcome(reference, d, rotate)
        assert got[0] == want[0] and all(
            x is y for x, y in zip(got[1], want[1])) and got[1:] == want[1:], (i, family)
        seen[family, got[0]] += 1
        seen["ten or more symbols"] += len(d.image_symbols()) >= 10
    assert seen["pairs", "error"] == 0 and seen["ten or more symbols"] > 20
    for family in ("clean", "pairs", "many"):
        assert seen[family, "values"] > 5, seen
    # rotating windows recover every pair of the "many" mutants
    for family in ("mutant", "random") if rotate else ("mutant", "random", "many"):
        assert seen[family, "error"] > 5, seen


def test_rotation_recovers_pairs_the_first_window_cannot():
    rescued = 0
    for i in range(MAPS):
        _, d = seeded_map(i)
        first = _outcome(_recover_two_way_by_five_points, d, False)
        rotated = _outcome(_recover_two_way_by_five_points, d, True)
        rescued += first[0] == "error" and rotated[0] == "values"
    assert rescued > 5
