import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trisym import (
    FivePointSystem,
    PAIR_OF_TRIPLES,
    SymbolTable,
    TRIPLE_OF_PAIRS,
    TwoWayMap,
    check_three_way_ultrametric,
    check_tree_map,
    check_ultrametric,
    classify_quartet,
    oracle_representable_three_way,
    pair_combination,
    parse_newick,
    representable_by_conditions,
    restrict,
    three_way_from_rooted,
    three_way_from_two_way,
    three_way_from_unrooted,
    two_way_from_tree,
)
from trisym.trees import ROOTED, UNROOTED

from conftest import (counts_are_valid, counts_singleton, multiset_map, pivot_leaf_map,
                      plain_map, random_multiset_map, ultrametric_by_five_subsets)
from test_trees import random_labelled_tree, seeds


# -- two-way conditions ----------------------------------------------------------

def test_tree_maps_are_clean_two_way():
    for seed in range(25):
        lt = random_labelled_tree(seed, 5, ROOTED, symbol_names=("A", "B", "C"))
        assert check_ultrametric(two_way_from_tree(lt)) == []


def test_u1_violation(abc_table):
    pairs = {frozenset(("x", "y")): abc_table.intern("A"),
             frozenset(("y", "z")): abc_table.intern("B"),
             frozenset(("x", "z")): abc_table.intern("C")}
    d = TwoWayMap.from_pairs(("x", "y", "z"), pairs, abc_table)
    out = check_ultrametric(d)
    assert [v.kind for v in out] == ["U1"]
    assert out[0].witness == ("x", "y", "z")


def test_u2_violation(ab_table):
    a, b = ab_table.intern("A"), ab_table.intern("B")
    pairs = {}
    for p in combinations("xyzu", 2):
        pairs[frozenset(p)] = b
    for p in (("x", "y"), ("y", "z"), ("z", "u")):
        pairs[frozenset(p)] = a
    d = TwoWayMap.from_pairs(("x", "y", "z", "u"), pairs, ab_table)
    out = check_ultrametric(d)
    assert [v.kind for v in out] == ["U2"]


def test_u_stop_after(abc_table):
    names = tuple("12345")
    syms = list(abc_table)
    pairs = {frozenset(p): syms[(i % 3)] for i, p in enumerate(combinations(names, 2))}
    d = TwoWayMap.from_pairs(names, pairs, abc_table)
    full = check_ultrametric(d)
    assert len(full) > 1
    assert check_ultrametric(d, stop_after=1) == full[:1]
    assert check_ultrametric(d, stop_after=2) == full[:2]
    assert check_ultrametric(d, stop_after=0) == full


# -- three-way tree-map conditions ---------------------------------------------------

def test_tree_maps_are_clean_three_way(five_leaf_unrooted):
    assert check_tree_map(three_way_from_unrooted(five_leaf_unrooted)) == []
    for seed in range(25):
        lt = random_labelled_tree(seed, 5, UNROOTED, symbol_names=("A", "B", "C"))
        assert check_tree_map(three_way_from_unrooted(lt)) == []


def test_m1_violation_pivot_map(ab_table):
    d = pivot_leaf_map(4, ab_table)
    out = check_tree_map(d)
    assert out[0].kind == "M1"
    assert out[0].witness == ("1", "2", "3", "4")


def test_m2_violation(ab_table):
    rows = {}
    for t in combinations("12345", 3):
        rows["".join(t)] = "A"
    # alternating pattern on the slice through leaf 1: the A-pairs form the
    # path 2-3-4-5 and the B-pairs the complementary path 4-2-5-3
    for t in ("123", "134", "145"):
        rows[t] = "A"
    for t in ("124", "125", "135"):
        rows[t] = "B"
    d = plain_map(tuple("12345"), rows, ab_table)
    kinds = {v.kind for v in check_tree_map(d)}
    assert "M2" in kinds


def test_m_conditions_match_oracle_on_random_maps(abc_table):
    rng = random.Random(4821)
    syms = list(abc_table)
    ground = tuple("12345")
    for _ in range(400):
        rows = {frozenset(t): rng.choice(syms) for t in combinations(ground, 3)}
        from trisym.maps import ThreeWayMap, KIND_SYMBOL
        d = ThreeWayMap.from_triples(KIND_SYMBOL, ground, rows, abc_table)
        clean = not check_tree_map(d, stop_after=1)
        assert clean == (oracle_representable_three_way(d) is not None)


# -- the five-point system ---------------------------------------------------------------

def test_matrix_inverse_identity():
    for i in range(10):
        for j in range(10):
            total = sum(Fraction(TRIPLE_OF_PAIRS[i][k]) * PAIR_OF_TRIPLES[k][j]
                        for k in range(10))
            assert total == (Fraction(1) if i == j else Fraction(0))


def test_pair_combination_constant_map(ab_table):
    from conftest import constant_multiset_map

    d = constant_multiset_map(tuple("12345"), "3A", ab_table)
    for p, q in combinations(d.ground, 2):
        comb = pair_combination(d, d.ground, p, q)
        assert comb.is_valid()
        assert comb.singleton() == ab_table.intern("A")


def test_pair_combination_from_tree_recovers_pair_values():
    for seed in range(20):
        lt = random_labelled_tree(seed, 5, ROOTED, symbol_names=("A", "B", "C"))
        d3 = three_way_from_rooted(lt)
        d2 = two_way_from_tree(lt)
        for p, q in combinations(lt.leaf_order, 2):
            comb = pair_combination(d3, lt.leaf_order, p, q)
            assert comb.is_valid()
            assert comb.singleton() == d2.value(p, q)


def test_pair_combination_invalid_on_locally_consistent_map(locally_consistent_map):
    d = locally_consistent_map
    comb = pair_combination(d, d.ground, "1", "2")
    assert not comb.is_valid()
    assert comb.coefficients == {
        d.symbols.intern("A"): Fraction(-2, 3),
        d.symbols.intern("B"): Fraction(5, 3),
    }


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_formula_route_equals_matrix_route(seed):
    table = SymbolTable(["A", "B", "C"])
    rng = random.Random(seed)
    d = random_multiset_map(tuple("12345"), table, rng)
    system = FivePointSystem(d, d.ground)
    matrix_route = system.pair_combinations()
    for (p, q), via_matrix in zip(system.pair_order, matrix_route):
        assert pair_combination(d, d.ground, p, q) == via_matrix


def test_integer_kernel_agrees_with_matrix_route():
    """The integer counts decide validity and the singleton exactly as the
    rational matrix route does."""
    from trisym.conditions import counts_combination, pair_counts

    rng = random.Random(61003)
    valid = invalid = 0
    for names in (("A", "B"), ("A", "B", "C")):
        table = SymbolTable(names)
        for _ in range(100):
            d = random_multiset_map(tuple("12345"), table, rng)
            system = FivePointSystem(d, d.ground)
            for (p, q), comb in zip(system.pair_order, system.pair_combinations()):
                e, f, g = [n for n in d.ground if n not in (p, q)]
                counts = pair_counts(d, p, q, e, f, g)
                assert counts_are_valid(counts) == comb.is_valid()
                assert counts_singleton(counts) == comb.singleton()
                assert counts_combination(counts) == comb
                valid += comb.is_valid()
                invalid += not comb.is_valid()
    assert valid and invalid


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_valid_combinations_are_singletons(seed):
    table = SymbolTable(["A", "B"])
    rng = random.Random(seed)
    d = random_multiset_map(tuple("12345"), table, rng)
    for p, q in combinations(d.ground, 2):
        comb = pair_combination(d, d.ground, p, q)
        if comb.is_valid():
            assert comb.singleton() is not None


# -- P conditions ----------------------------------------------------------------------

def test_tree_maps_are_clean_multiset(five_leaf_rooted):
    assert check_three_way_ultrametric(three_way_from_rooted(five_leaf_rooted)) == []


def test_p_conditions_on_locally_consistent_map(locally_consistent_map):
    kinds = [v.kind for v in check_three_way_ultrametric(locally_consistent_map)]
    assert kinds and set(kinds) == {"P1"}


def test_p_independence_profiles(p1_independence_map, p2_independence_map,
                                 p3_independence_map):
    profiles = {
        "P1": p1_independence_map,
        "P2": p2_independence_map,
        "P3": p3_independence_map,
    }
    for only, d in profiles.items():
        kinds = {v.kind for v in check_three_way_ultrametric(d)}
        assert kinds == {only}, (only, kinds)


def test_p_conditions_match_oracle_on_random_maps(ab_table):
    rng = random.Random(20125)
    for _ in range(400):
        d = random_multiset_map(tuple("12345"), ab_table, rng)
        clean = not check_three_way_ultrametric(d, stop_after=1)
        assert clean == (oracle_representable_three_way(d) is not None)


def test_projection_of_clean_map_is_clean(ab_table):
    """Clean three-way plain maps project to clean two-way maps through every
    leaf; the pivot-leaf map shows the converse fails."""
    from trisym import farris_project

    for seed in range(15):
        lt = random_labelled_tree(seed, 5, UNROOTED)
        d = three_way_from_unrooted(lt)
        assert check_tree_map(d) == []
        for r in d.ground:
            assert check_ultrametric(farris_project(d, r)) == []
    pivot = pivot_leaf_map(5, ab_table)
    assert check_tree_map(pivot, stop_after=1)
    for r in pivot.ground:
        assert check_ultrametric(farris_project(pivot, r)) == []


# -- quartet classification ------------------------------------------------------------

def test_classify_quartet_reference_trees(quartet_trees):
    for i, lt in quartet_trees.items():
        d = three_way_from_rooted(lt)
        got = classify_quartet(d, lt.leaf_order)
        assert got.index == i


def test_classify_quartet_applies_bijections(quartet_trees):
    d = three_way_from_rooted(quartet_trees[4])
    q = classify_quartet(d, ("2", "4", "1", "3"))
    assert q.index == 4
    # re-apply the bijections and compare every triple
    from trisym.conditions import _REF_VALUES
    from trisym.symbols import TripleMultiset

    for t in combinations(("1", "2", "3", "4"), 3):
        ref = _REF_VALUES[q.index][frozenset(q.leaf_bijection[n] for n in t)]
        mapped = TripleMultiset.of(*(q.symbol_bijection[s] for s in ref.entries))
        assert mapped == d.value(*t)


def test_classify_quartet_constant_map(ab_table):
    from conftest import constant_multiset_map

    d = constant_multiset_map(tuple("1234"), "3A", ab_table)
    assert classify_quartet(d, d.ground).index == 1


def test_classify_quartet_rejects_near_miss(ab_table):
    rows = {"123": "3A", "124": "3A", "134": "3A", "234": "2A+B"}
    d = multiset_map(tuple("1234"), rows, ab_table)
    assert classify_quartet(d, d.ground).index is None


def test_classify_quartet_matches_oracle_exhaustively(ab_table):
    from itertools import product
    from conftest import multiset_alphabet
    from trisym.maps import ThreeWayMap, KIND_MULTISET

    ground = tuple("1234")
    triples = list(combinations(ground, 3))
    alphabet = multiset_alphabet(ab_table)
    for assignment in product(alphabet, repeat=4):
        d = ThreeWayMap.from_triples(
            KIND_MULTISET, ground,
            dict(zip((frozenset(t) for t in triples), assignment)), ab_table)
        classified = bool(classify_quartet(d, ground))
        assert classified == (oracle_representable_three_way(d) is not None)
        assert classified == representable_by_conditions(d)


# -- five-subset reduction ----------------------------------------------------------------

def test_by_fives_on_representable_map(five_leaf_rooted):
    assert ultrametric_by_five_subsets(three_way_from_rooted(five_leaf_rooted))


def test_by_fives_on_locally_consistent_map(locally_consistent_map):
    assert not ultrametric_by_five_subsets(locally_consistent_map)
    for four in combinations(locally_consistent_map.ground, 4):
        assert classify_quartet(locally_consistent_map, four).index is not None


def test_by_fives_matches_full_check_on_six_leaves(ab_table):
    rng = random.Random(77)
    for seed in range(12):
        lt = random_labelled_tree(seed, 6, ROOTED)
        d = three_way_from_rooted(lt)
        assert ultrametric_by_five_subsets(d)
    for _ in range(60):
        d = random_multiset_map(tuple("123456"), ab_table, rng)
        assert ultrametric_by_five_subsets(d) == \
            (not check_three_way_ultrametric(d, stop_after=1))
