"""One table pass for a pair map's triples.

TwoWayMap.triples reads each 3-subset's three pair values off one
upper-triangle table, and U1, three_way_from_two_way and
triplets_from_two_way read it; triplets_from_two_way and
displayed_triplets share one triplet classifier, trees.triplets_of.
Each is compared here with a reference that reads value() or lca() one
triple at a time, as the code did before the shared pass.  The maps are
seeded pair maps of 3-12 leaves on shuffled grounds over 1-12 symbols:
tree maps, one-cell mutants of them and random maps.
"""

import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from trisym import (
    SymbolTable,
    TripleMultiset,
    TwoWayMap,
    check_ultrametric,
    displayed_triplets,
    three_way_from_two_way,
    two_way_from_tree,
)
from trisym import trees
from trisym.conditions import U1, Violation
from trisym.reconstruct import NotUltrametricError, triplets_from_two_way
from trisym.trees import ROOTED, PhyloTree, Triplet, TripletSet

sys.path.insert(0, str(Path(__file__).parent))
from test_trees import random_labelled_tree  # noqa: E402


def _names(k):
    return [chr(ord("A") + i) for i in range(k)]


def _on_ground(d, ground):
    """d laid out over another order of its ground."""
    return TwoWayMap(ground, [d.value(x, y) for x, y in combinations(ground, 2)], d.symbols)


def _maps():
    """Per leaf count 3-12 and a few seeds: a tree's pair map, a one-cell
    mutant of it and a random map, each on a shuffled ground, over 1-12
    symbols."""
    rng = random.Random(1717)
    out = []
    for n in range(3, 13):
        for _ in range(4):
            k = rng.randint(1, 12)
            table = SymbolTable(_names(k))
            ground = [str(i + 1) for i in range(n)]
            rng.shuffle(ground)
            lt = random_labelled_tree(rng.randrange(10**9), n, ROOTED, symbol_names=_names(k))
            d = _on_ground(two_way_from_tree(lt), ground)
            values = list(d.values)
            i = rng.randrange(len(values))
            values[i] = rng.choice([s for s in d.symbols if s is not values[i]] or values)
            out += [d, TwoWayMap(ground, values, d.symbols),
                    TwoWayMap(ground, [rng.choice(list(table)) for _ in combinations(ground, 2)],
                              table)]
    return out


MAPS = _maps()


def _reference_triples(d):
    return [((x, y, z), (d.value(x, y), d.value(x, z), d.value(y, z)))
            for x, y, z in combinations(d.ground, 3)]


def _reference_u1(d):
    out = []
    for x, y, z in combinations(d.ground, 3):
        vals = (d.value(x, y), d.value(x, z), d.value(y, z))
        if len(set(vals)) == 3:
            out.append(Violation(
                U1, (x, y, z),
                f"three pairwise distinct values {vals[0].name},{vals[1].name},{vals[2].name}"))
    return out


def _reference_triplets(d):
    """The per-triple loop triplets_from_two_way ran before the shared
    classifier: triplets up to the first triple of three distinct values."""
    found = set()
    for x, y, z in combinations(d.ground, 3):
        vxy, vxz, vyz = d.value(x, y), d.value(x, z), d.value(y, z)
        if vxy == vxz == vyz:
            continue
        if vxz == vyz != vxy:
            found.add(Triplet.of(x, y, z))
        elif vxy == vyz != vxz:
            found.add(Triplet.of(x, z, y))
        elif vxy == vxz != vyz:
            found.add(Triplet.of(y, z, x))
        else:
            raise NotUltrametricError((x, y, z))
    return TripletSet(d.ground, frozenset(found))


def test_the_corpus_has_every_kind_of_map():
    u1 = [bool(_reference_u1(d)) for d in MAPS]
    assert u1.count(True) >= 20 and u1.count(False) >= 20
    assert {len(d.symbols) for d in MAPS} >= {1, 12}
    assert any(list(d.ground) != sorted(d.ground, key=int) for d in MAPS)


@pytest.mark.parametrize("k", range(len(MAPS)))
def test_triples_read_the_pair_values(k):
    d = MAPS[k]
    got = list(d.triples())
    want = _reference_triples(d)
    assert got == want
    assert all(a is b for (_, g), (_, w) in zip(got, want) for a, b in zip(g, w))


@pytest.mark.parametrize("k", range(len(MAPS)))
def test_u1_violations_match_the_reference(k):
    d = MAPS[k]
    want = _reference_u1(d)
    got = check_ultrametric(d)
    assert got[:len(want)] == want
    assert all(v.kind != U1 for v in got[len(want):])


@pytest.mark.parametrize("k", range(len(MAPS)))
def test_three_way_from_two_way_gives_the_same_values(k):
    d = MAPS[k]
    m = three_way_from_two_way(d)
    want = [TripleMultiset.of(*vals) for _, vals in _reference_triples(d)]
    assert m.ground == d.ground and len(m.values) == len(want)
    assert all(a is b for a, b in zip(m.values, want))


@pytest.mark.parametrize("k", range(len(MAPS)))
def test_triplets_from_two_way_matches_the_old_loop(k):
    d = MAPS[k]
    try:
        want = _reference_triplets(d)
    except NotUltrametricError as err:
        with pytest.raises(NotUltrametricError) as got:
            triplets_from_two_way(d)
        assert got.value.witness == err.witness and str(got.value) == str(err)
    else:
        got = triplets_from_two_way(d)
        assert got == want and got.ground == want.ground


def test_a_late_u1_witness_makes_no_triplet_before_the_raise(monkeypatch):
    # a caterpillar (1,(2,(3,...(11,12)))) with alternating labels has a
    # triplet on every triple; a fresh symbol on the pair (2, 12) first
    # makes three distinct values at (2, 3, 12), after every triple of 1
    text = "(11,12)A"
    for leaf in range(10, 1, -1):
        text = f"({leaf},{text}){'AB'[leaf % 2]}"
    d = two_way_from_tree(trees.parse_newick(ROOTED, f"(1,{text})C;", SymbolTable(_names(3))))
    values = list(d.values)
    values[list(combinations(d.ground, 2)).index(("2", "12"))] = d.symbols.intern("D")
    d = TwoWayMap(d.ground, values, d.symbols)
    calls = []
    of = Triplet.of.__func__

    def counted(cls, *names):
        calls.append(names)
        return of(cls, *names)

    monkeypatch.setattr(Triplet, "of", classmethod(counted))
    with pytest.raises(NotUltrametricError) as err:
        _reference_triplets(d)
    assert err.value.witness == ("2", "3", "12") and len(calls) >= 55
    calls.clear()
    with pytest.raises(NotUltrametricError) as err:
        triplets_from_two_way(d)
    assert err.value.witness == ("2", "3", "12") and calls == []


def _reference_displayed(tree):
    found = set()
    for x, y, z in combinations(tree.leaf_order, 3):
        xy, xz, yz = tree.lca(x, y), tree.lca(x, z), tree.lca(y, z)
        if xz == yz != xy:
            found.add(Triplet.of(x, y, z))
        elif xy == yz != xz:
            found.add(Triplet.of(x, z, y))
        elif xy == xz != yz:
            found.add(Triplet.of(y, z, x))
    return TripletSet(tree.leaf_order, frozenset(found))


@pytest.mark.parametrize("seed", range(30))
def test_displayed_triplets_match_the_lca_reference(seed):
    rng = random.Random(seed)
    tree = random_labelled_tree(seed, rng.randint(3, 12), ROOTED).tree
    order = list(tree.leaf_order)
    rng.shuffle(order)
    tree = PhyloTree(ROOTED, tree.adj, tree.leaf_name, root=tree.root, leaf_order=order)
    got = displayed_triplets(tree)
    assert got == _reference_displayed(tree) and got.ground == tuple(order)


def test_the_tree_corpus_has_polytomies():
    def polytomy(seed):
        tree = random_labelled_tree(seed, random.Random(seed).randint(3, 12), ROOTED).tree
        return any(len(kids) > 2 for kids in tree.children)

    assert sum(map(polytomy, range(30))) >= 5
