import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from trisym import (
    KIND_MULTISET,
    KIND_SYMBOL,
    MapError,
    SymbolTable,
    ThreeWayMap,
    TripleMultiset,
    TwoWayMap,
    collapse_to_discriminating,
    farris_project,
    induced_subtree,
    load_three_way_map,
    load_two_way_map,
    parse_newick,
    restrict,
    save_three_way_map,
    save_two_way_map,
    set_valued_view,
    three_way_from_rooted,
    three_way_from_two_way,
    three_way_from_unrooted,
    two_way_from_tree,
)
from trisym.trees import ROOTED, UNROOTED

from conftest import multiset_map, pivot_leaf_map
from test_trees import random_labelled_tree, seeds


def test_two_way_from_tree_examples(five_leaf_rooted, abc_table):
    d = two_way_from_tree(five_leaf_rooted)
    assert d.value("1", "2").name == "B"
    assert d.value("1", "5").name == "A"
    star = parse_newick("rooted", "(1,2,3)A;")
    ds = two_way_from_tree(star)
    assert {v.name for _, v in ds.pairs()} == {"A"}
    cherry4 = parse_newick("rooted", "((1,2)B,3,4)A;", abc_table)
    dc = two_way_from_tree(cherry4)
    assert dc.value("3", "4").name == "A"
    assert dc.value("1", "2").name == "B"


def test_three_way_from_unrooted_examples(five_leaf_unrooted):
    d = three_way_from_unrooted(five_leaf_unrooted)
    assert d.value("1", "3", "5").name == "A"
    assert d.value("1", "2", "3").name == "B"
    star = parse_newick("unrooted", "(1,2,3,4)A;")
    dstar = three_way_from_unrooted(star)
    assert {v.name for _, v in dstar.triples()} == {"A"}


def test_three_way_from_rooted_examples(five_leaf_rooted, quartet_trees):
    d = three_way_from_rooted(five_leaf_rooted)
    assert d.value("1", "2", "5").text() == "2A+B"
    d1 = three_way_from_rooted(quartet_trees[1])
    assert d1.value("1", "2", "3").text() == "3A"
    d7 = three_way_from_rooted(quartet_trees[7])
    assert d7.value("1", "2", "3").text() == "2B+C"
    assert d7.value("1", "2", "4").text() == "2A+C"


def test_values_from_trees_have_small_support(ab_table):
    for seed in range(30):
        lt = random_labelled_tree(seed, 5, ROOTED)
        d = three_way_from_rooted(lt)
        assert all(len(v.support) <= 2 for _, v in d.triples())


def test_restrict_examples(locally_consistent_map):
    d = restrict(locally_consistent_map, ["1", "2", "3", "4"])
    assert d.value("1", "2", "3").text() == "2A+B"
    assert d.value("1", "2", "4").text() == "2A+B"
    assert d.value("1", "3", "4").text() == "3A"
    assert d.value("2", "3", "4").text() == "3A"
    assert restrict(locally_consistent_map, locally_consistent_map.ground) == locally_consistent_map
    single = restrict(locally_consistent_map, ["1", "2", "5"])
    assert len(single.values) == 1
    with pytest.raises(MapError):
        restrict(locally_consistent_map, ["1", "2", "9"])
    assert restrict(locally_consistent_map, (x for x in "1234")) == d


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_restrict_commutes_with_tree_restriction(seed, pick):
    lt = random_labelled_tree(seed, 6, ROOTED, discriminating=True)
    rng = random.Random(pick)
    sub = rng.sample(lt.leaf_order, rng.choice([4, 5]))
    via_tree = three_way_from_rooted(
        collapse_to_discriminating(induced_subtree(lt, sub)))
    via_map = restrict(three_way_from_rooted(lt), sub)
    assert via_tree == via_map


def test_farris_project_examples(five_leaf_unrooted, ab_table):
    d = three_way_from_unrooted(five_leaf_unrooted)
    sliced = farris_project(d, "5")
    assert sliced.value("1", "3").name == "A"
    assert set(sliced.ground) == {"1", "2", "3", "4"}

    pivot = pivot_leaf_map(5, ab_table)
    through_one = farris_project(pivot, "1")
    assert {v.name for _, v in through_one.pairs()} == {"A"}
    with pytest.raises(MapError):
        farris_project(pivot, "9")


def test_assembled_map_matches_tree_route(five_leaf_rooted):
    assert three_way_from_two_way(two_way_from_tree(five_leaf_rooted)) == \
        three_way_from_rooted(five_leaf_rooted)


def test_map_equality_is_order_insensitive(ab_table):
    rows = {"123": "3A", "124": "2A+B", "134": "2A+B", "234": "2A+B"}
    d1 = multiset_map(tuple("1234"), rows, ab_table)
    d2 = multiset_map(("4", "2", "3", "1"), rows, ab_table)
    assert d1 == d2

    a, b = ab_table.intern("A"), ab_table.intern("B")
    pairs = {"12": a, "13": b, "14": b, "23": b, "24": b, "34": a}
    e1 = TwoWayMap.from_pairs(tuple("1234"), pairs, ab_table)
    e2 = TwoWayMap.from_pairs(("4", "2", "3", "1"), pairs, ab_table)
    assert e1 == e2 and e2 == e1 and hash(e1) == hash(e2)
    assert e1 != TwoWayMap.from_pairs(tuple("1234"), dict(pairs, **{"14": a}), ab_table)
    assert e1 != TwoWayMap.from_pairs(tuple("1235"), {
        tuple(k.replace("4", "5")): v for k, v in pairs.items()}, ab_table)


@pytest.mark.parametrize("seed", range(7))
def test_value_agrees_with_a_frozenset_index(seed, abc_table):
    rng = random.Random(seed)
    n = 3 + seed
    ground = rng.sample([str(i) for i in range(20)], n)
    syms = list(abc_table)
    for k in (2, 3):
        values = [rng.choice(syms) for _ in combinations(ground, k)]
        if k == 2:
            d = TwoWayMap(ground, values, abc_table)
        else:
            d = ThreeWayMap(KIND_SYMBOL, ground, values, abc_table)
        index = {frozenset(s): v for s, v in zip(combinations(ground, k), values)}
        for s in combinations(ground, k):
            for names in permutations(s):
                assert d.value(*names) is index[frozenset(s)]
        for bad in ([ground[0]] * k, [ground[0]] * (k - 1) + ["x"],
                    ["x"] + ground[:k - 1], ground[:k - 1] + [ground[0]],
                    [ground[-1]] * 2 + ground[:k - 2]):
            with pytest.raises(MapError):
                d.value(*bad)


def test_set_valued_view(five_leaf_rooted):
    view = set_valued_view(three_way_from_rooted(five_leaf_rooted))
    names = {frozenset(t): {s.name for s in v}
             for t, v in view.items()}
    assert names[frozenset(("1", "2", "5"))] == {"A", "B"}
    assert names[frozenset(("3", "4", "5"))] == {"A", "B"}


# -- text form -----------------------------------------------------------------

def test_three_way_tsv_roundtrip(locally_consistent_map):
    text = save_three_way_map(locally_consistent_map)
    assert text.splitlines()[0] == "x y z value"
    again = load_three_way_map(text, KIND_MULTISET)
    assert again == locally_consistent_map
    assert again.ground == locally_consistent_map.ground


def test_plain_tsv_roundtrip(five_leaf_unrooted):
    d = three_way_from_unrooted(five_leaf_unrooted)
    again = load_three_way_map(save_three_way_map(d), KIND_SYMBOL)
    assert again == d


def test_two_way_tsv_roundtrip(five_leaf_rooted):
    d = two_way_from_tree(five_leaf_rooted)
    again = load_two_way_map(save_two_way_map(d))
    assert again == d


def test_load_validates_completeness():
    text = "x y z value\n1 2 3 3A\n1 2 4 3A\n"
    with pytest.raises(MapError):
        load_three_way_map(text, KIND_MULTISET)


def test_load_rejects_duplicates():
    text = "x y z value\n1 2 3 3A\n3 2 1 3A\n1 2 4 3A\n1 3 4 3A\n2 3 4 3A\n"
    with pytest.raises(MapError):
        load_three_way_map(text, KIND_MULTISET)


def test_load_rejects_missing_header():
    with pytest.raises(MapError):
        load_three_way_map("1 2 3 3A\n", KIND_MULTISET)


@pytest.mark.parametrize("name", ["a(1", "1,2", "x;", "p:q", "'q'"])
def test_load_rejects_leaf_names_the_tree_text_cannot_carry(name):
    rows = [("1", "2", "3"), ("1", "2", name), ("1", "3", name), ("2", "3", name)]
    with pytest.raises(MapError, match="bad leaf name"):
        load_three_way_map("x y z value\n" + "".join(f"{x} {y} {z} A\n" for x, y, z in rows),
                           KIND_SYMBOL)
    pairs = [("1", "2"), ("1", name), ("2", name)]
    with pytest.raises(MapError, match="bad leaf name"):
        load_two_way_map("x y value\n" + "".join(f"{x} {y} A\n" for x, y in pairs))


def test_ground_order_is_first_appearance():
    text = "x y z value\n5 2 3 3A\n5 2 4 3A\n5 3 4 3A\n2 3 4 3A\n"
    d = load_three_way_map(text, KIND_MULTISET)
    assert d.ground == ("5", "2", "3", "4")


@pytest.mark.parametrize("kind, bad", [(KIND_SYMBOL, "1A"), (KIND_MULTISET, "0A+3B")])
def test_a_duplicate_row_is_reported_before_its_own_bad_value(kind, bad):
    good = "A" if kind == KIND_SYMBOL else "3A"
    with pytest.raises(MapError, match=r"^duplicate row for triple \(3,2,1\)$"):
        load_three_way_map(f"x y z value\n1 2 3 {good}\n3 2 1 {bad}\n", kind)
    with pytest.raises(MapError, match=r"^duplicate row for pair \(2,1\)$"):
        load_two_way_map("x y value\n1 2 A\n2 1 1A\n")


@pytest.mark.parametrize("kind, other", [(KIND_SYMBOL, KIND_MULTISET), (KIND_SYMBOL, None),
                                         (KIND_MULTISET, KIND_SYMBOL), (KIND_MULTISET, None)])
def test_the_first_value_of_another_kind_is_named(kind, other):
    table = SymbolTable(["A", "B"])
    a, b = table
    of_kind = {KIND_SYMBOL: (a, b), KIND_MULTISET: (TripleMultiset.of(a, a, b),
                                                    TripleMultiset.of(a, b, b)), None: (None,)}
    good = of_kind[kind][0]
    values = [good, good, *of_kind[other], good][:4]  # the bad values after good ones
    with pytest.raises(MapError) as info:
        ThreeWayMap(kind, "1234", values, table)
    assert str(info.value) == f"value {of_kind[other][0]!r} does not match codomain kind {kind!r}"
