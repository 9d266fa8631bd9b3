import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trisym import (
    NotUltrametricError,
    PairContradictionError,
    SymbolTable,
    Triplet,
    TwoWayMap,
    build,
    decide_tree_map,
    decide_ultrametric,
    displayed_triplets,
    is_discriminating,
    is_fixed_cherry_map,
    labelled_isomorphic,
    oracle_representable_three_way,
    parse_newick,
    recover_two_way,
    three_way_from_rooted,
    three_way_from_unrooted,
    triplets_from_three_way,
    triplets_from_two_way,
    two_way_from_tree,
)
from trisym.reconstruct import STAGE_BUILD, STAGE_LABELS
from trisym.trees import ROOTED, TreeBuilder, UNROOTED

from conftest import constant_multiset_map, multiset_map, pivot_leaf_map
from test_trees import random_labelled_tree, seeds


# -- triplets from two-way maps ----------------------------------------------------

def test_triplets_from_two_way_examples(five_leaf_rooted, ab_table):
    d = two_way_from_tree(five_leaf_rooted)
    trips = triplets_from_two_way(d)
    assert Triplet.of("1", "2", "3") in trips

    const = TwoWayMap.from_pairs(
        ("1", "2", "3"),
        {frozenset(p): ab_table.intern("A") for p in combinations("123", 2)},
        ab_table)
    assert len(triplets_from_two_way(const)) == 0


def test_triplets_from_two_way_signals_bad_triple(abc_table):
    pairs = {frozenset(("1", "2")): abc_table.intern("A"),
             frozenset(("1", "3")): abc_table.intern("B"),
             frozenset(("2", "3")): abc_table.intern("C")}
    d = TwoWayMap.from_pairs(("1", "2", "3"), pairs, abc_table)
    with pytest.raises(NotUltrametricError) as err:
        triplets_from_two_way(d)
    assert err.value.witness == ("1", "2", "3")


# -- BUILD ---------------------------------------------------------------------------

def test_build_single_triplet():
    tree = build([Triplet.of("1", "2", "3")], ("1", "2", "3"))
    assert tree is not None
    assert {repr(t) for t in displayed_triplets(tree)} == {"12|3"}


def test_build_contradiction():
    assert build([Triplet.of("1", "2", "3"), Triplet.of("1", "3", "2")],
                 ("1", "2", "3")) is None


def test_build_block_triplets(block_value_map):
    trips = triplets_from_three_way(block_value_map)
    tree = build(trips, block_value_map.ground)
    assert tree is not None
    assert set(displayed_triplets(tree)) == set(trips)


def test_build_rejects_foreign_names_and_tiny_ground_sets():
    from trisym import TreeError

    with pytest.raises(TreeError, match="outside the ground set"):
        build([Triplet.of("1", "2", "3"), Triplet.of("1", "2", "9")], ("1", "2", "3"))
    with pytest.raises(TreeError, match="at least two leaves"):
        build([], ("1",))


def test_build_empty_gives_star():
    tree = build([], ("1", "2", "3", "4"))
    assert tree is not None
    assert tree.children[tree.root] and len(tree.children[tree.root]) == 4


def test_build_never_drops_triplets():
    rng = random.Random(5150)
    names = tuple("12345")
    for _ in range(120):
        picks = {Triplet.of(*rng.sample(names, 3)) for _ in range(rng.randrange(6))}
        tree = build(picks, names)
        if tree is not None:
            assert picks <= set(displayed_triplets(tree))
        else:
            # brute-force confirmation: no labelled shape displays them all
            from trisym.oracle import enumerate_shapes
            covered = any(picks <= set(displayed_triplets(shape))
                          for shape in enumerate_shapes(ROOTED, names))
            assert not covered


def reference_build(triplets, ground):
    """BUILD by rescanning, the reference for build: every level scans every
    triplet for those whose three leaves lie inside its leaf set."""
    trips = list(triplets)
    pos = {name: i for i, name in enumerate(ground)}
    builder = TreeBuilder()

    def rec(names):
        if len(names) == 1:
            return builder.add_vertex(names[0])
        here = set(names)
        parent = {n: n for n in names}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for t in trips:
            if t.leaves <= here:
                a, b = t.cherry
                parent[find(a)] = find(b)
        comps = {}
        for n in names:
            comps.setdefault(find(n), []).append(n)
        if len(comps) == 1:
            return None
        v = builder.add_vertex()
        for comp in sorted(comps.values(), key=lambda c: pos[c[0]]):
            child = rec(tuple(comp))
            if child is None:
                return None
            builder.add_edge(v, child)
        return v

    root = rec(tuple(ground))
    return None if root is None else builder.tree(ROOTED, root=root, leaf_order=ground)


def test_build_matches_the_rescanning_reference():
    """Seeded triplet sets on 4-12 leaves, half drawn at random and half from
    the triplets of a random tree (plus, sometimes, one random extra): the
    same tree, vertex for vertex, or None in the same cases."""
    rng = random.Random(6007)
    outcomes = {True: 0, False: 0}
    for seed in range(300):
        n = 4 + seed % 9
        names = [str(i + 1) for i in range(n)]
        if seed % 2:
            trips = {Triplet.of(*rng.sample(names, 3)) for _ in range(rng.randrange(1, 3 * n))}
        else:
            shown = sorted(displayed_triplets(random_labelled_tree(seed, n, ROOTED)), key=repr)
            trips = set(rng.sample(shown, rng.randrange(len(shown) + 1)))
            if rng.random() < 0.3:
                trips.add(Triplet.of(*rng.sample(names, 3)))
        rng.shuffle(names)
        got, want = build(trips, names), reference_build(trips, names)
        outcomes[got is None] += 1
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.adj, got.root, got.leaf_name, got.leaf_order) == \
                (want.adj, want.root, want.leaf_name, want.leaf_order)
    assert outcomes[True] > 50 and outcomes[False] > 50


# -- fixed-cherry maps ------------------------------------------------------------------

def test_fixed_cherry_detection(ab_table):
    lt = parse_newick("rooted", "((1,2)B,(3,4,5)B)A;", ab_table)
    d = three_way_from_rooted(lt)
    assert d.value("3", "4", "5").text() == "3B"
    assert d.value("1", "3", "4").text() == "2A+B"
    hit = is_fixed_cherry_map(d)
    assert hit is not None
    cherry, root_sym, fan_sym = hit
    assert cherry == frozenset(("1", "2"))
    assert (root_sym.name, fan_sym.name) == ("A", "B")


def test_fixed_cherry_absent_on_example(five_leaf_rooted):
    assert is_fixed_cherry_map(three_way_from_rooted(five_leaf_rooted)) is None


def test_fixed_cherry_absent_on_constant(ab_table):
    d = constant_multiset_map(tuple("12345"), "3A", ab_table)
    assert is_fixed_cherry_map(d) is None


def test_fixed_cherry_absent_on_block_map(block_value_map):
    assert is_fixed_cherry_map(block_value_map) is None


def test_fixed_cherry_decision_roundtrip(ab_table):
    lt = parse_newick("rooted", "((1,2)B,(3,4,5,6)B)A;", ab_table)
    d = three_way_from_rooted(lt)
    out = decide_ultrametric(d)
    assert out.representable
    assert labelled_isomorphic(out.tree, lt)


# -- triplets from multiset maps -----------------------------------------------------------

def test_triplet_extraction_example(five_leaf_rooted):
    d = three_way_from_rooted(five_leaf_rooted)
    trips = triplets_from_three_way(d)
    assert Triplet.of("1", "2", "5") in trips
    assert set(trips) == set(displayed_triplets(five_leaf_rooted))


def test_triplet_extraction_block_map(block_value_map):
    got = {repr(t) for t in triplets_from_three_way(block_value_map)}
    assert got == {"34|1", "34|2", "35|1", "35|2", "45|1", "45|2"}


def test_triplet_extraction_constant_map(ab_table):
    d = constant_multiset_map(tuple("12345"), "3A", ab_table)
    assert len(triplets_from_three_way(d)) == 0


def test_triplet_extraction_sound_and_lossy_only_at_root_cherries(ab_table):
    """Extraction never invents triplets.  It can miss a displayed triplet,
    but only in one shape: the cherry {x,y} hangs directly off an outdegree-2
    root and the witness conditions degenerate (for example
    (((1,2)A,3)B,(4,5)B)A displays 45|3 with no witness).  Reconstruction
    does not need those triplets; the round-trip tests stay exhaustive."""
    from trisym.oracle import EnumerationSpec, enumerate_labelled_trees
    from trisym import classify_quartet

    lossy = 0
    for n in (4, 5):
        spec = EnumerationSpec(tuple("12345"[:n]), tuple(ab_table), ROOTED, True)
        for lt in enumerate_labelled_trees(spec):
            d = three_way_from_rooted(lt)
            if n == 4:
                if classify_quartet(d, d.ground).index == 3:
                    continue
            elif is_fixed_cherry_map(d) is not None:
                continue
            extracted = set(triplets_from_three_way(d))
            displayed = set(displayed_triplets(lt))
            assert extracted <= displayed, repr(lt)
            for t in displayed - extracted:
                lossy += 1
                x, y = sorted(t.cherry)
                tree = lt.tree
                w = tree.lca(x, y)
                assert tree.lca(x, t.outlier) == tree.root
                assert len(tree.children[tree.root]) == 2
                assert w in tree.children[tree.root]
                assert set(tree.children[w]) == {tree.vertex_of(x), tree.vertex_of(y)}
    assert lossy > 0  # the degenerate shape really occurs


def test_known_lossy_extraction_case(ab_table):
    lt = parse_newick("rooted", "(((1,2)A,3)B,(4,5)B)A;", ab_table)
    d = three_way_from_rooted(lt)
    missing = set(displayed_triplets(lt)) - set(triplets_from_three_way(d))
    assert missing == {Triplet.of("4", "5", "3")}
    out = decide_ultrametric(d)
    assert out.representable and labelled_isomorphic(out.tree, lt)


def test_displayed_triplets_read_off_the_labels(ab_table):
    """On discriminating trees a displayed triplet pins down the value: the
    cherry's lca label is the minority symbol and the other two lcas carry
    the majority symbol; triples displaying nothing have constant values."""
    from trisym.oracle import EnumerationSpec, enumerate_labelled_trees

    spec = EnumerationSpec(tuple("12345"), tuple(ab_table), ROOTED, True)
    for lt in enumerate_labelled_trees(spec):
        d = three_way_from_rooted(lt)
        by_leaves = {t.leaves: t for t in displayed_triplets(lt)}
        for triple, value in d.triples():
            t = by_leaves.get(frozenset(triple))
            if t is None:
                assert len(value.support) == 1
            else:
                x, y = sorted(t.cherry)
                assert value.minority == lt.lca_label(x, y)
                assert value.majority == lt.lca_label(x, t.outlier)


def test_decide_tree_map_exhaustive_four_leaves(abc_table):
    """All 81 plain-symbol maps on four leaves over three symbols: the
    decision procedure, the four/five-point checker, and the oracle agree."""
    from itertools import product
    from trisym import check_tree_map, oracle_representable_three_way
    from trisym.maps import ThreeWayMap, KIND_SYMBOL

    ground = tuple("1234")
    triples = [frozenset(t) for t in combinations(ground, 3)]
    syms = list(abc_table)
    for assignment in product(syms, repeat=4):
        d = ThreeWayMap.from_triples(KIND_SYMBOL, ground,
                                     dict(zip(triples, assignment)), abc_table)
        decided = decide_tree_map(d).representable
        checked = not check_tree_map(d, stop_after=1)
        searched = oracle_representable_three_way(d) is not None
        assert decided == checked == searched, assignment


def test_decide_ultrametric_exhaustive_three_symbols(abc_table):
    """Every discriminating rooted labelled tree on five leaves over three
    symbols round-trips through the decision procedure."""
    from trisym.oracle import EnumerationSpec, enumerate_labelled_trees

    spec = EnumerationSpec(tuple("12345"), tuple(abc_table), ROOTED, True)
    for lt in enumerate_labelled_trees(spec):
        out = decide_ultrametric(three_way_from_rooted(lt))
        assert out.representable and labelled_isomorphic(out.tree, lt), repr(lt)


# -- recovery of the pairwise map -------------------------------------------------------------

def test_recover_two_way_example(five_leaf_rooted):
    d = three_way_from_rooted(five_leaf_rooted)
    recovered = recover_two_way(d, displayed_triplets(five_leaf_rooted))
    assert recovered == two_way_from_tree(five_leaf_rooted)
    assert recovered.value("1", "2").name == "B"
    assert recovered.value("3", "4").name == "B"
    assert recovered.value("1", "5").name == "A"


def test_recover_two_way_constant(ab_table):
    d = constant_multiset_map(tuple("12345"), "3A", ab_table)
    from trisym.trees import TripletSet

    recovered = recover_two_way(d, TripletSet(d.ground, frozenset()))
    assert {v.name for _, v in recovered.pairs()} == {"A"}


def test_recover_two_way_contradiction(block_value_map):
    trips = triplets_from_three_way(block_value_map)
    tree = build(trips, block_value_map.ground)
    with pytest.raises(PairContradictionError):
        recover_two_way(block_value_map, displayed_triplets(tree))


# -- decision procedures -----------------------------------------------------------------------

def test_decide_tree_map_roundtrip(five_leaf_unrooted):
    d = three_way_from_unrooted(five_leaf_unrooted)
    out = decide_tree_map(d)
    assert out.representable and out.unique
    assert labelled_isomorphic(out.tree, five_leaf_unrooted)
    assert is_discriminating(out.tree)


def test_decide_tree_map_pivot_map(ab_table):
    out = decide_tree_map(pivot_leaf_map(5, ab_table))
    assert not out.representable
    assert out.failure_stage == STAGE_LABELS


def test_decide_tree_map_r_independence(ab_table):
    for seed in range(10):
        lt = random_labelled_tree(seed, 5, UNROOTED, discriminating=True)
        d = three_way_from_unrooted(lt)
        for r in d.ground:
            out = decide_tree_map(d, r)
            assert out.representable
            assert labelled_isomorphic(out.tree, lt)


def test_decide_tree_map_self_check_mode(five_leaf_unrooted, ab_table):
    d = three_way_from_unrooted(five_leaf_unrooted)
    out = decide_tree_map(d, check_all_leaves=True)
    assert out.representable
    bad = decide_tree_map(pivot_leaf_map(5, ab_table), check_all_leaves=True)
    assert not bad.representable


def test_decide_ultrametric_roundtrip(five_leaf_rooted):
    out = decide_ultrametric(three_way_from_rooted(five_leaf_rooted))
    assert out.representable and out.unique
    assert labelled_isomorphic(out.tree, five_leaf_rooted)
    assert is_discriminating(out.tree)


def test_decide_ultrametric_block_map(block_value_map):
    out = decide_ultrametric(block_value_map)
    assert not out.representable
    assert out.failure_stage == STAGE_LABELS


def test_decide_ultrametric_block_map_names_the_combination(block_value_map):
    out = decide_ultrametric(block_value_map)
    assert "pair (1,3)" in out.detail
    assert "(1,2,3,4,5)" in out.detail
    assert "(1/2)A+(1/2)B" in out.detail


def test_decide_ultrametric_locally_consistent(locally_consistent_map):
    out = decide_ultrametric(locally_consistent_map)
    assert not out.representable


def test_decide_ultrametric_four_leaves(ab_table, quartet_trees):
    d3 = three_way_from_rooted(quartet_trees[3])
    out = decide_ultrametric(d3)
    assert out.representable
    assert out.unique is False  # several trees share this map
    d2 = three_way_from_rooted(quartet_trees[2])
    out2 = decide_ultrametric(d2)
    assert out2.representable and out2.unique
    assert labelled_isomorphic(out2.tree, quartet_trees[2])


def test_decide_matches_conditions_randomly(ab_table):
    from trisym import check_three_way_ultrametric
    from conftest import random_multiset_map

    rng = random.Random(3499)
    for _ in range(300):
        d = random_multiset_map(tuple("12345"), ab_table, rng)
        clean = not check_three_way_ultrametric(d, stop_after=1)
        assert decide_ultrametric(d).representable == clean


def test_decide_matches_conditions_beyond_the_oracle():
    """Seeded discriminating trees on 7-9 leaves over A,B,C, too many for the
    oracle, each with two one-cell mutants: the decision procedure agrees
    with the P conditions, and every clean map rebuilds its tree."""
    from trisym import check_three_way_ultrametric
    from trisym.maps import ThreeWayMap
    from conftest import multiset_alphabet

    rng = random.Random(90217)
    negatives = 0
    for seed in range(30):
        lt = random_labelled_tree(seed, 7 + seed % 3, ROOTED,
                                  symbol_names=("A", "B", "C"), discriminating=True)
        d = three_way_from_rooted(lt)
        out = decide_ultrametric(d)
        assert out.representable and labelled_isomorphic(out.tree, lt), repr(lt)
        assert not check_three_way_ultrametric(d, stop_after=1)
        alphabet = multiset_alphabet(d.symbols)
        for _ in range(2):
            values = list(d.values)
            i = rng.randrange(len(values))
            values[i] = rng.choice([v for v in alphabet if v != values[i]])
            mutant = ThreeWayMap(d.kind, d.ground, values, d.symbols)
            decided = decide_ultrametric(mutant).representable
            assert decided == (not check_three_way_ultrametric(mutant, stop_after=1))
            negatives += not decided
    assert negatives > 0


def decision_agrees_with_conditions(flavor, seeds, lo, hi):
    """Seeded discriminating trees on lo-hi leaves over A,B,C, each with two
    one-cell mutants: the decision procedure agrees with the conditions (P
    for rooted trees, M for unrooted ones), and every clean map rebuilds its
    tree.  Returns the number of mutants decided not representable."""
    from trisym import check_three_way_ultrametric, check_tree_map
    from trisym.maps import ThreeWayMap
    from conftest import multiset_alphabet

    if flavor == ROOTED:
        construct, decide, check = (three_way_from_rooted, decide_ultrametric,
                                    check_three_way_ultrametric)
    else:
        construct, decide, check = three_way_from_unrooted, decide_tree_map, check_tree_map
    rng = random.Random(90217)
    negatives = 0
    for seed in seeds:
        lt = random_labelled_tree(seed, lo + seed % (hi - lo + 1), flavor,
                                  symbol_names=("A", "B", "C"), discriminating=True)
        d = construct(lt)
        out = decide(d)
        assert out.representable and labelled_isomorphic(out.tree, lt), repr(lt)
        assert not check(d, stop_after=1)
        alphabet = list(d.symbols) if flavor == UNROOTED else multiset_alphabet(d.symbols)
        for _ in range(2):
            values = list(d.values)
            i = rng.randrange(len(values))
            values[i] = rng.choice([v for v in alphabet if v != values[i]])
            mutant = ThreeWayMap(d.kind, d.ground, values, d.symbols)
            decided = decide(mutant).representable
            assert decided == (not check(mutant, stop_after=1))
            negatives += not decided
    return negatives


def test_decide_tree_map_matches_conditions_beyond_the_oracle():
    """The unrooted twin of test_decide_matches_conditions_beyond_the_oracle:
    30 discriminating unrooted trees on 7-9 leaves, against the M conditions."""
    assert decision_agrees_with_conditions(UNROOTED, range(30), 7, 9) > 0


@pytest.mark.slow
@pytest.mark.parametrize("flavor", [ROOTED, UNROOTED])
def test_decide_matches_conditions_on_larger_trees(flavor):
    """The larger slice of both differential tests: 100 trees on 10-16 leaves."""
    assert decision_agrees_with_conditions(flavor, range(1000, 1100), 10, 16) > 0


def test_outcome_text(five_leaf_rooted, block_value_map):
    good = decide_ultrametric(three_way_from_rooted(five_leaf_rooted))
    assert good.text().startswith("verdict: representable")
    assert "rooted" in good.text()
    bad = decide_ultrametric(block_value_map)
    assert "labelling-verification" in bad.text()
