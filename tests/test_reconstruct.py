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
    tree_to_text,
    triplets_from_three_way,
    triplets_from_two_way,
    two_way_from_tree,
)
from trisym.reconstruct import STAGE_BUILD, STAGE_LABELS
from trisym.trees import LabelledTree, ROOTED, TreeBuilder, TripletSet, UNROOTED

from conftest import caterpillar_text, constant_multiset_map, multiset_map, pivot_leaf_map
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
    recovered = recover_two_way(d, TripletSet(d.ground, frozenset()))
    assert {v.name for _, v in recovered.pairs()} == {"A"}


def test_recover_two_way_contradiction(block_value_map):
    trips = triplets_from_three_way(block_value_map)
    tree = build(trips, block_value_map.ground)
    with pytest.raises(PairContradictionError):
        recover_two_way(block_value_map, displayed_triplets(tree))


def test_recover_two_way_names_a_value_with_three_symbols(abc_table):
    d = multiset_map(tuple("123"), {"123": "A+B+C"}, abc_table)
    with pytest.raises(PairContradictionError,
                       match=r"value A\+B\+C on \(1,2,3\) has three distinct symbols"):
        recover_two_way(d, TripletSet(d.ground, frozenset({Triplet.of("1", "2", "3")})))


def test_recover_two_way_names_disagreeing_third_leaves(ab_table):
    rows = {"123": "3A", "124": "3B", "134": "3A", "234": "3A"}
    d = multiset_map(tuple("1234"), rows, ab_table)
    with pytest.raises(PairContradictionError,
                       match=r"pair \(1,2\): third leaves disagree: A vs B"):
        recover_two_way(d, TripletSet(d.ground, frozenset()))


# -- labelling --------------------------------------------------------------------------------

def random_pair_map(rng, i):
    """The i-th map of a seeded mix on 4-10 leaves over 2-4 symbols: a random
    pair map, a random tree's pair map, or that map with one or two cells
    changed to another symbol."""
    n = rng.randint(4, 10)
    names = ("A", "B", "C", "D")[:rng.randint(2, 4)]
    if i % 4 == 0:
        table = SymbolTable(names)
        ground = [str(k + 1) for k in range(n)]
        return TwoWayMap(ground, [rng.choice(list(table)) for _ in combinations(ground, 2)],
                         table)
    d2 = two_way_from_tree(random_labelled_tree(rng.randrange(10**9), n, ROOTED, names))
    values = list(d2.values)
    for _ in range(i % 4 - 1):
        k = rng.randrange(len(values))
        values[k] = rng.choice([s for s in d2.symbols if s != values[k]])
    return TwoWayMap(d2.ground, values, d2.symbols)


def reference_tree_from_two_way(d2):
    """The paper's route through a pair map, the reference for the
    decision's symbol split: triplets, BUILD, and labels read off BUILD's
    tree; or the negative outcome of the triplet or BUILD stage."""
    from trisym.reconstruct import (NOT_REPRESENTABLE, STAGE_TRIPLETS,
                                    ReconstructionOutcome)

    try:
        trips = triplets_from_two_way(d2)
    except NotUltrametricError as err:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_TRIPLETS,
                                     detail=str(err))
    shape = build(trips, d2.ground)
    if shape is None:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_BUILD,
                                     detail="triplets are not displayed by any tree")
    lca = shape.leaf_lca_table()
    pairs = combinations(range(len(d2.ground)), 2)
    return LabelledTree(shape, {lca[i][j]: v for (i, j), v in zip(pairs, d2.values)},
                        d2.symbols)


def same_outcome(got, want):
    """The two routes agree in tree layout, labels by name, failure stage
    and detail."""
    if isinstance(want, LabelledTree):
        assert isinstance(got, LabelledTree), got
        assert tree_to_text(got) == tree_to_text(want)
        assert got.tree.adj == want.tree.adj and got.tree.root == want.tree.root
        assert ({v: s.name for v, s in got.labels.items()}
                == {v: s.name for v, s in want.labels.items()})
    else:
        assert not isinstance(got, LabelledTree), tree_to_text(got)
        assert (got.failure_stage, got.detail) == (want.failure_stage, want.detail)


def test_labelling_a_build_tree_cannot_fail():
    """Once triplets and BUILD succeed on a pair map, the labels read off
    BUILD's tree reproduce the map and the labelled tree is discriminating;
    otherwise the triplet or BUILD stage names the failure.  The decision's
    split of the map gives the same tree, vertex numbers, adjacency and
    labels, or the same failing stage and detail."""
    from trisym.reconstruct import STAGE_TRIPLETS, _tree_from_two_way

    rng = random.Random(6120)
    stages = {"built": 0, STAGE_TRIPLETS: 0, STAGE_BUILD: 0}
    for i in range(3200):
        d2 = random_pair_map(rng, i)
        out = reference_tree_from_two_way(d2)
        same_outcome(_tree_from_two_way(d2), out)
        if isinstance(out, LabelledTree):
            assert two_way_from_tree(out) == d2
            assert is_discriminating(out)
            stages["built"] += 1
        else:
            stages[out.failure_stage] += 1
    assert min(stages.values()) > 100, stages


def test_build_on_a_pair_map_in_any_ground_order():
    """BUILD given a pair map lays the tree out over the ground it is given,
    as it does given the map's listed triplets, and refuses another leaf set."""
    from trisym import parse_tree
    from trisym.trees import TreeError

    d2 = two_way_from_tree(parse_tree(balanced_text(9)))
    for ground in (d2.ground, d2.ground[::-1]):
        want = build(triplets_from_two_way(d2), ground)
        got = build(d2, ground)
        assert got.adj == want.adj and got.leaf_name == want.leaf_name
    with pytest.raises(TreeError):
        build(d2, d2.ground[1:])


def balanced_text(n):
    """A balanced rooted binary tree on leaves 1..n, labelled A and B in
    turn by depth, so that it is discriminating."""
    def grow(lo, hi, depth):
        if hi - lo == 1:
            return str(lo)
        mid = (lo + hi) // 2
        return f"({grow(lo, mid, depth + 1)},{grow(mid, hi, depth + 1)}){'AB'[depth % 2]}"

    return f"rooted\n{grow(1, n + 1, 0)};\n"


@pytest.mark.parametrize("text", [caterpillar_text(64, ROOTED), caterpillar_text(97, ROOTED),
                                  balanced_text(64), balanced_text(100)],
                         ids=["caterpillar-64", "caterpillar-97", "balanced-64", "balanced-100"])
def test_the_symbol_split_on_deep_and_wide_trees(text):
    from trisym import parse_tree
    from trisym.reconstruct import _tree_from_two_way

    d2 = two_way_from_tree(parse_tree(text))
    got = _tree_from_two_way(d2)
    same_outcome(got, reference_tree_from_two_way(d2))
    assert tree_to_text(got) == text


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
    """Every projection leaf gives the same verdict and, when representable,
    labelled-isomorphic trees."""
    for d, want in ((three_way_from_unrooted(five_leaf_unrooted), True),
                    (pivot_leaf_map(5, ab_table), False)):
        first = decide_tree_map(d, d.ground[0])
        assert first.representable is want
        for r in d.ground[1:]:
            out = decide_tree_map(d, r)
            assert out.verdict == first.verdict
            if want:
                assert labelled_isomorphic(out.tree, first.tree)


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


def test_decide_ultrametric_four_leaves_with_four_symbols():
    table = SymbolTable(["A", "B", "C", "D"])
    rows = {"123": "3A", "124": "3B", "134": "3C", "234": "3D"}
    out = decide_ultrametric(multiset_map(tuple("1234"), rows, table))
    assert (out.verdict, out.failure_stage, out.detail) == (
        "not-representable", STAGE_BUILD, "more image symbols than interior vertices")


def test_decide_ultrametric_four_leaves_without_a_tree(ab_table):
    rows = {"123": "3B", "124": "3A", "134": "3A", "234": "3A"}
    out = decide_ultrametric(multiset_map(tuple("1234"), rows, ab_table))
    assert (out.verdict, out.failure_stage, out.detail) == (
        "not-representable", STAGE_BUILD, "no four-leaf labelled tree matches")


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
    for rooted trees, M for unrooted ones) and, on trees the oracle takes,
    with the oracle, and every clean map rebuilds its tree.  Returns the
    number of mutants decided not representable."""
    from trisym import check_three_way_ultrametric, check_tree_map
    from trisym.maps import ThreeWayMap
    from trisym.oracle import MAX_LEAVES
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
        oracle = len(d.ground) <= MAX_LEAVES
        if oracle:
            assert labelled_isomorphic(oracle_representable_three_way(d), lt)
        alphabet = list(d.symbols) if flavor == UNROOTED else multiset_alphabet(d.symbols)
        for _ in range(2):
            values = list(d.values)
            i = rng.randrange(len(values))
            values[i] = rng.choice([v for v in alphabet if v != values[i]])
            mutant = ThreeWayMap(d.kind, d.ground, values, d.symbols)
            decided = decide(mutant).representable
            assert decided == (not check(mutant, stop_after=1))
            if oracle:
                assert decided == (oracle_representable_three_way(mutant) is not None)
            negatives += not decided
    return negatives


def test_decide_matches_conditions_and_the_oracle_on_six_leaves():
    """Aim 3 at the oracle's limit: 40 discriminating rooted trees on six
    leaves over A,B,C and their 80 mutants, against the P conditions and the
    oracle."""
    assert decision_agrees_with_conditions(ROOTED, range(40), 6, 6) > 0


def test_decide_tree_map_matches_conditions_beyond_the_oracle():
    """The unrooted twin of test_decide_matches_conditions_beyond_the_oracle:
    30 discriminating unrooted trees on 7-9 leaves, against the M conditions."""
    assert decision_agrees_with_conditions(UNROOTED, range(30), 7, 9) > 0


@pytest.mark.slow
@pytest.mark.parametrize("flavor", [ROOTED, UNROOTED])
def test_decide_matches_conditions_on_larger_trees(flavor):
    """The larger slice of both differential tests: 100 trees on 10-16 leaves."""
    assert decision_agrees_with_conditions(flavor, range(1000, 1100), 10, 16) > 0


@pytest.mark.parametrize("flavor", [ROOTED, UNROOTED])
def test_decide_matches_conditions_on_13_to_16_leaves(flavor):
    """A tier-1 slice at the top of that range: 12 trees per flavor on 13-16
    leaves (an unrooted random tree has one leaf more) and their mutants."""
    assert decision_agrees_with_conditions(flavor, range(2000, 2012), 13, 16) > 0


def test_outcome_text(five_leaf_rooted, block_value_map):
    good = decide_ultrametric(three_way_from_rooted(five_leaf_rooted))
    assert good.text().startswith("verdict: representable")
    assert "rooted" in good.text()
    bad = decide_ultrametric(block_value_map)
    assert "labelling-verification" in bad.text()


def test_build_rebuilds_a_deep_caterpillar():
    """1 k | k+1 for k = 2..n-1 forces the caterpillar, a chain of n-1
    nested leaf sets; BUILD does about n^2/2 work on it, so n stays near
    the recursion limit a recursive BUILD would hit."""
    from trisym import parse_tree, shape_isomorphic

    from conftest import caterpillar_text

    n = 1200
    names = [str(k) for k in range(1, n + 1)]
    trips = [Triplet.of("1", str(k), str(k + 1)) for k in range(2, n)]
    tree = build(trips, names)
    assert tree is not None
    want = parse_tree(caterpillar_text(n, ROOTED)).tree
    assert shape_isomorphic(tree, want)
