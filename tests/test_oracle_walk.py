"""The oracle's pruned walk of leaf insertions: how many trees a query
builds, its worst case, and the census counted per shape in closed form."""

import random
from itertools import combinations

import pytest

from trisym import (
    EnumerationSpec,
    SymbolTable,
    ThreeWayMap,
    TripleMultiset,
    census,
    enumerate_labelled_trees,
    oracle_representable_three_way,
    three_way_from_rooted,
    three_way_from_unrooted,
)
from trisym import oracle
from trisym.maps import KIND_MULTISET, KIND_SYMBOL
from trisym.trees import ROOTED, UNROOTED

from conftest import multiset_alphabet
from test_trees import random_labelled_tree


def names(n):
    return tuple(str(i + 1) for i in range(n))


def clean_and_mutant_maps(flavor, seed, count):
    """Maps of `count` seeded discriminating 6-leaf trees over three
    symbols, each followed by a copy with one cell changed."""
    rng = random.Random(seed)
    construct = three_way_from_rooted if flavor == ROOTED else three_way_from_unrooted
    for _ in range(count):
        lt = random_labelled_tree(rng.randrange(2**31), 6 - (flavor == UNROOTED), flavor,
                                  symbol_names=("A", "B", "C"), discriminating=True)
        d = construct(lt)
        alphabet = list(d.symbols) if flavor == UNROOTED else multiset_alphabet(d.symbols)
        values = list(d.values)
        i = rng.randrange(len(values))
        values[i] = rng.choice([v for v in alphabet if v is not values[i]])
        yield d
        yield ThreeWayMap(d.kind, d.ground, values, d.symbols)


@pytest.mark.parametrize("flavor", [ROOTED, UNROOTED])
def test_a_query_builds_only_the_tree_it_returns(flavor, monkeypatch):
    """The walk prunes every prefix whose slots disagree and builds a tree
    only for the shape it returns: one per representable map, none for the
    others, where a table of every shape would build 2,752 (rooted) or 236
    (unrooted) trees."""
    built = []
    materialize = oracle._materialize
    monkeypatch.setattr(oracle, "_materialize",
                        lambda *args: built.append(args) or materialize(*args))
    found = 0
    for i, d in enumerate(clean_and_mutant_maps(flavor, 23, 12)):
        built.clear()
        got = oracle_representable_three_way(d)
        assert len(built) == (got is not None)
        if i % 2 == 0:
            assert got is not None
            construct = three_way_from_rooted if flavor == ROOTED else three_way_from_unrooted
            assert construct(got) == d
            found += 1
    assert found == 12


def test_the_oracle_keeps_no_table_between_queries():
    assert not [name for name, value in vars(oracle).items() if hasattr(value, "cache_info")]


@pytest.mark.parametrize("flavor, n", [(ROOTED, n) for n in range(3, 7)]
                         + [(UNROOTED, n) for n in range(4, 7)])
def test_a_constant_map_is_the_star_with_its_one_label(flavor, n):
    """Every prefix of a constant map passes the slot test, so the walk
    reaches every shape: the worst case of the pruning.  The only
    discriminating tree is the star."""
    table = SymbolTable(["A", "B"])
    a = table.intern("A")
    value = TripleMultiset((a, a, a)) if flavor == ROOTED else a
    kind = KIND_MULTISET if flavor == ROOTED else KIND_SYMBOL
    d = ThreeWayMap(kind, names(n), [value] * len(list(combinations(range(n), 3))), table)
    got = oracle_representable_three_way(d)
    assert got is not None
    tree = got.tree
    (hub,) = tree.interior_vertices()
    assert got.labels == {hub: a}
    assert sorted(tree.adj[hub]) == sorted(tree.leaf_vertex.values())
    assert tree.root == (hub if flavor == ROOTED else None)


def census_specs(leaf_counts):
    for n in leaf_counts:
        for flavor in (ROOTED, UNROOTED):
            if n < (2 if flavor == ROOTED else 3):
                continue
            for k in range(1, oracle.MAX_SYMBOLS + 1):
                for discriminating in (True, False):
                    yield EnumerationSpec(names(n), tuple(SymbolTable("ABC"[:k])), flavor,
                                          discriminating)


def assert_census_counts_the_enumeration(specs):
    for spec in specs:
        got = census(spec)
        assert got["labelled"] == sum(1 for _ in enumerate_labelled_trees(spec)), spec
        assert (got["leaves"], got["symbols"]) == (len(spec.leaves), len(spec.symbols))


def test_census_counts_the_labelled_trees_it_no_longer_enumerates():
    assert_census_counts_the_enumeration(census_specs(range(2, 6)))


@pytest.mark.slow
def test_census_counts_the_labelled_trees_on_six_leaves():
    assert_census_counts_the_enumeration(census_specs([6]))
