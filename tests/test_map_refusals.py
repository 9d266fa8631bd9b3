"""What the map layer refuses, and with which message: a map of the wrong
arity at every public entry point that takes one kind of map and checks its
arguments (pair_counts, documented as unchecked, is left out), malformed
ground sets and tables, trees of the wrong flavor, and value() lookups of
names that rank to no slot."""

from itertools import combinations, permutations

import pytest

from trisym import (
    KIND_MULTISET,
    KIND_PAIR,
    KIND_SYMBOL,
    FivePointSystem,
    MapError,
    SymbolTable,
    ThreeWayMap,
    TwoWayMap,
    check_three_way_ultrametric,
    check_tree_map,
    check_ultrametric,
    classify_quartet,
    decide_tree_map,
    decide_ultrametric,
    farris_project,
    oracle_representable_three_way,
    pair_combination,
    parse_newick,
    representable_by_conditions,
    restrict,
    save_three_way_map,
    save_two_way_map,
    set_valued_view,
    three_way_from_rooted,
    three_way_from_two_way,
    three_way_from_unrooted,
    triplets_from_two_way,
    two_way_from_tree,
)
from trisym.reconstruct import near_tree

ROOTED_TEXT = "((1,2)B,(3,4)B,5)A;"
UNROOTED_TEXT = "((1,2)B,3,(4,5)B)A;"


def _maps():
    """A pair map, a symbol map and a multiset map, each on five leaves."""
    table = SymbolTable(["A", "B"])
    rooted = parse_newick("rooted", ROOTED_TEXT, table)
    unrooted = parse_newick("unrooted", UNROOTED_TEXT, table)
    return {KIND_PAIR: two_way_from_tree(rooted), KIND_SYMBOL: three_way_from_unrooted(unrooted),
            KIND_MULTISET: three_way_from_rooted(rooted)}


# (entry point, the kind of map it is given, the refusal)
WRONG_ARITY = [
    (check_ultrametric, KIND_SYMBOL, "U conditions apply to two-way maps"),
    (check_ultrametric, KIND_MULTISET, "U conditions apply to two-way maps"),
    (check_tree_map, KIND_PAIR, "M conditions apply to plain-symbol three-way maps"),
    (check_three_way_ultrametric, KIND_PAIR, "P conditions apply to multiset three-way maps"),
    (representable_by_conditions, KIND_PAIR, "the conditions verdict applies to three-way maps"),
    (decide_tree_map, KIND_PAIR, "decide_tree_map applies to plain-symbol maps"),
    (decide_ultrametric, KIND_PAIR, "decide_ultrametric applies to multiset maps"),
    (oracle_representable_three_way, KIND_PAIR, "the oracle searches for three-way maps"),
    (lambda d: classify_quartet(d, d.ground[:4]), KIND_PAIR,
     "quartet classification applies to multiset maps"),
    (lambda d: farris_project(d, d.ground[0]), KIND_PAIR,
     "farris_project applies to plain-symbol three-way maps"),
    (set_valued_view, KIND_PAIR, "set_valued_view applies to multiset maps"),
    (lambda d: pair_combination(d, d.ground, *d.ground[:2]), KIND_PAIR,
     "pair combinations apply to multiset three-way maps"),
    (lambda d: FivePointSystem(d, d.ground), KIND_PAIR, "five-point systems apply to multiset maps"),
    (save_three_way_map, KIND_PAIR, "the three-way text form holds three-way maps"),
    (save_two_way_map, KIND_SYMBOL, "the two-way text form holds two-way maps"),
    (save_two_way_map, KIND_MULTISET, "the two-way text form holds two-way maps"),
    (lambda d: restrict(d, d.ground[:3]), KIND_PAIR, "restrict applies to three-way maps"),
    (three_way_from_two_way, KIND_SYMBOL, "three_way_from_two_way applies to two-way maps"),
    (three_way_from_two_way, KIND_MULTISET, "three_way_from_two_way applies to two-way maps"),
    (triplets_from_two_way, KIND_SYMBOL, "triplets_from_two_way applies to two-way maps"),
    (triplets_from_two_way, KIND_MULTISET, "triplets_from_two_way applies to two-way maps"),
]


@pytest.mark.parametrize("entry, kind, message", WRONG_ARITY,
                         ids=[f"{getattr(e, '__name__', 'call')}-{k}-{i}"
                              for i, (e, k, _) in enumerate(WRONG_ARITY)])
def test_a_map_of_the_wrong_arity_is_refused_with_a_map_error(entry, kind, message):
    d = _maps()[kind]
    assert d.kind == kind
    with pytest.raises(MapError) as info:
        entry(d)
    assert str(info.value) == message


def test_every_map_kind_gets_its_near_tree():
    for d in _maps().values():
        assert near_tree(d) is not None


def test_pair_is_no_codomain_kind_of_a_three_way_map():
    d = _maps()[KIND_SYMBOL]
    with pytest.raises(MapError) as info:
        ThreeWayMap(KIND_PAIR, d.ground, d.values, d.symbols)
    assert str(info.value) == "unknown codomain kind 'pair'"


@pytest.mark.parametrize("kind", [KIND_PAIR, KIND_SYMBOL, KIND_MULTISET])
def test_malformed_ground_sets_and_tables_are_refused(kind):
    d = _maps()[kind]
    make = TwoWayMap if kind == KIND_PAIR else lambda *args: ThreeWayMap(kind, *args)
    what = "two-way" if kind == KIND_PAIR else "three-way"
    cases = [
        ((d.ground[:-1] + d.ground[:1], d.values, d.symbols), "duplicate names in the ground set"),
        ((d.ground, d.values[:-1], d.symbols), f"{what} map table is not total"),
        ((d.ground, d.values + d.values[:1], d.symbols), f"{what} map table is not total"),
    ]
    for args, message in cases:
        with pytest.raises(MapError) as info:
            make(*args)
        assert str(info.value) == message


def test_a_table_without_a_subset_is_refused():
    pairs, three = _maps()[KIND_PAIR], _maps()[KIND_MULTISET]
    table = dict(pairs.pairs())
    del table[("1", "3")]
    with pytest.raises(MapError) as info:
        TwoWayMap.from_pairs(pairs.ground, table, pairs.symbols)
    assert str(info.value) == "missing value for pair ['1', '3']"
    table = dict(three.triples())
    del table[("2", "4", "5")]
    with pytest.raises(MapError) as info:
        ThreeWayMap.from_triples(KIND_MULTISET, three.ground, table, three.symbols)
    assert str(info.value) == "missing value for triple ['2', '4', '5']"


def test_trees_of_the_wrong_flavor_are_refused():
    rooted, unrooted = parse_newick("rooted", ROOTED_TEXT), parse_newick("unrooted", UNROOTED_TEXT)
    for construct, tree, message in [
        (two_way_from_tree, unrooted, "two_way_from_tree needs a rooted labelled tree"),
        (three_way_from_rooted, unrooted, "three_way_from_rooted needs a rooted labelled tree"),
        (three_way_from_unrooted, rooted,
         "three_way_from_unrooted needs an unrooted labelled tree"),
    ]:
        with pytest.raises(MapError) as info:
            construct(tree)
        assert str(info.value) == message
    with pytest.raises(MapError) as info:
        three_way_from_unrooted(parse_newick("unrooted", "(1,2,3)A;"))
    assert str(info.value) == "unrooted tree-maps need at least 4 leaves"


def test_restrict_farris_project_and_the_set_valued_view_refusals():
    maps = _maps()
    symbol, multiset = maps[KIND_SYMBOL], maps[KIND_MULTISET]
    small = restrict(symbol, ["1", "2", "3"])
    for call, message in [
        (lambda: restrict(symbol, ["1", "2", "9", "0"]), "names ['0', '9'] are not in the ground set"),
        (lambda: restrict(symbol, ["1", "2", "1"]), "restriction needs at least 3 leaves"),
        (lambda: farris_project(multiset, "1"),
         "farris_project applies to plain-symbol three-way maps"),
        (lambda: farris_project(symbol, "9"), "leaf '9' is not in the ground set"),
        (lambda: farris_project(small, "1"), "farris_project needs at least 4 leaves"),
        (lambda: set_valued_view(symbol), "set_valued_view applies to multiset maps"),
    ]:
        with pytest.raises(MapError) as info:
            call()
        assert str(info.value) == message
    assert set_valued_view(multiset)[frozenset("125")] == multiset.value("1", "2", "5").support


def test_image_symbols_of_every_kind():
    maps = _maps()
    assert {s.name for s in maps[KIND_PAIR].image_symbols()} == {"A", "B"}
    assert maps[KIND_PAIR].image_symbols() == set(maps[KIND_PAIR].values)
    assert maps[KIND_SYMBOL].image_symbols() == set(maps[KIND_SYMBOL].values)
    assert maps[KIND_MULTISET].image_symbols() == {
        s for v in maps[KIND_MULTISET].values for s in v.entries}


def test_value_reads_one_slot_from_its_names_in_any_order():
    for d in _maps().values():
        for i, subset in enumerate(combinations(d.ground, d._k)):
            assert all(d.value(*names) is d.values[i] for names in permutations(subset))


@pytest.mark.parametrize("names, message", [
    (("1", "9"), "pair (1,9) is not in the map"),
    (("9", "1"), "pair (9,1) is not in the map"),
    (("8", "9"), "pair (8,9) is not in the map"),
    (("2", "2"), "pair (2,2) is not in the map"),
    (("9", "9"), "pair (9,9) is not in the map"),
])
def test_pair_value_messages(names, message):
    with pytest.raises(MapError) as info:
        _maps()[KIND_PAIR].value(*names)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", [KIND_SYMBOL, KIND_MULTISET])
@pytest.mark.parametrize("names, message", [
    (("1", "2", "9"), "triple (1,2,9) is not in the map"),
    (("9", "1", "2"), "triple (9,1,2) is not in the map"),
    (("1", "9", "2"), "triple (1,9,2) is not in the map"),
    (("7", "8", "9"), "triple (7,8,9) is not in the map"),
    (("1", "1", "2"), "triple (1,1,2) is not in the map"),
    (("2", "1", "2"), "triple (2,1,2) is not in the map"),
    (("2", "3", "3"), "triple (2,3,3) is not in the map"),
    (("4", "4", "4"), "triple (4,4,4) is not in the map"),
    (("1", "9", "9"), "triple (1,9,9) is not in the map"),
])
def test_triple_value_messages(kind, names, message):
    with pytest.raises(MapError) as info:
        _maps()[kind].value(*names)
    assert str(info.value) == message
