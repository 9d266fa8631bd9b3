import random
from itertools import combinations, permutations

import pytest

from trisym import (
    EnumerationError,
    EnumerationSpec,
    SymbolTable,
    ThreeWayMap,
    canonical_form,
    census,
    classify_quartet,
    enumerate_labelled_trees,
    enumerate_shapes,
    labelled_isomorphic,
    oracle_representable_three_way,
    three_way_from_rooted,
    three_way_from_unrooted,
    tree_to_text,
)
from trisym.maps import KIND_MULTISET
from trisym.oracle import ROOTED_SHAPE_COUNTS
from trisym.trees import ROOTED, UNROOTED

from conftest import multiset_alphabet, random_multiset_map
from test_trees import random_labelled_tree


def names(n):
    return tuple(str(i + 1) for i in range(n))


def test_rooted_shape_counts_match_known_values():
    for n in range(2, 6):
        got = sum(1 for _ in enumerate_shapes(ROOTED, names(n)))
        assert got == ROOTED_SHAPE_COUNTS[n]


def test_unrooted_shape_counts_via_leaf_bijection():
    # unrooted trees on n leaves correspond to rooted trees on n-1 leaves
    for n in range(3, 6):
        got = sum(1 for _ in enumerate_shapes(UNROOTED, names(n)))
        assert got == ROOTED_SHAPE_COUNTS[n - 1]


def test_unrooted_shape_count_by_independent_insertion_recurrence():
    """Count n-leaf shapes as sum over (n-1)-leaf shapes of their insertion
    positions (edges plus interior vertices), an independent recurrence."""
    total = 0
    for shape in enumerate_shapes(UNROOTED, names(4)):
        edges = sum(len(a) for a in shape.adj) // 2
        total += edges + len(shape.interior_vertices())
    got5 = sum(1 for _ in enumerate_shapes(UNROOTED, names(5)))
    assert got5 == total == 26


def test_shapes_are_pairwise_distinct():
    seen = set()
    for shape in enumerate_shapes(ROOTED, names(5)):
        code = canonical_form(shape, with_labels=False)
        assert code not in seen
        seen.add(code)


def test_three_leaf_rooted_shapes():
    shapes = list(enumerate_shapes(ROOTED, names(3)))
    assert len(shapes) == 4
    fans = [s for s in shapes if len(s.children[s.root]) == 3]
    assert len(fans) == 1


def test_labelled_enumeration_is_duplicate_free(ab_table):
    spec = EnumerationSpec(names(5), tuple(ab_table), ROOTED, True)
    seen = set()
    count = 0
    for lt in enumerate_labelled_trees(spec):
        count += 1
        code = canonical_form(lt)
        assert code not in seen
        seen.add(code)
    # a connected interior tree has exactly two proper 2-colorings
    assert count == 2 * ROOTED_SHAPE_COUNTS[5]


def test_discriminating_filter(ab_table):
    spec_all = EnumerationSpec(names(4), tuple(ab_table), ROOTED, False)
    spec_disc = EnumerationSpec(names(4), tuple(ab_table), ROOTED, True)
    all_count = sum(1 for _ in enumerate_labelled_trees(spec_all))
    disc_count = sum(1 for _ in enumerate_labelled_trees(spec_disc))
    assert disc_count < all_count
    from trisym import is_discriminating

    assert all(is_discriminating(lt) for lt in enumerate_labelled_trees(spec_disc))


def test_four_leaf_patterns_up_to_relabelling(abc_table):
    """Quotienting the four-leaf discriminating labelled trees by leaf
    permutation and symbol renaming leaves exactly the seven reference
    patterns."""
    spec = EnumerationSpec(names(4), tuple(abc_table), ROOTED, True)
    classes = set()
    sym_names = [s.name for s in abc_table]
    for lt in enumerate_labelled_trees(spec):
        codes = []
        for leaf_perm in permutations(names(4)):
            relabel = dict(zip(names(4), leaf_perm))
            for sym_perm in permutations(sym_names):
                rename = dict(zip(sym_names, sym_perm))
                tree = lt.tree
                code = _renamed_code(lt, relabel, rename)
                codes.append(code)
        classes.add(min(codes))
    assert len(classes) == 7


def _renamed_code(lt, relabel, rename):
    tree = lt.tree

    def walk(v, parent):
        if tree.is_leaf(v):
            return ("L", relabel[tree.leaf_name[v]])
        kids = tuple(sorted(walk(w, v) for w in tree.adj[v] if w != parent))
        return ("I", rename[lt.labels[v].name], kids)

    return walk(tree.root, None)


def test_five_leaf_maps_identify_their_tree(ab_table):
    """No two non-isomorphic discriminating rooted trees on five leaves share
    a multiset map."""
    spec = EnumerationSpec(names(5), tuple(ab_table), ROOTED, True)
    by_map = {}
    for lt in enumerate_labelled_trees(spec):
        key = tuple(three_way_from_rooted(lt).values)
        by_map.setdefault(key, []).append(lt)
    assert all(len(v) == 1 for v in by_map.values())


def test_four_leaf_multiplicity_is_exactly_pattern_three(ab_table):
    spec = EnumerationSpec(names(4), tuple(ab_table), ROOTED, True)
    by_map = {}
    for lt in enumerate_labelled_trees(spec):
        d = three_way_from_rooted(lt)
        by_map.setdefault(tuple(d.values), []).append(d)
    for key, ds in by_map.items():
        index = classify_quartet(ds[0], ds[0].ground).index
        assert index is not None
        if len(ds) > 1:
            assert index == 3
        if index == 3:
            assert len(ds) > 1


def test_oracle_finds_representation(five_leaf_rooted):
    d = three_way_from_rooted(five_leaf_rooted)
    found = oracle_representable_three_way(d)
    assert found is not None
    assert labelled_isomorphic(found, five_leaf_rooted)


def test_oracle_negative(locally_consistent_map):
    assert oracle_representable_three_way(locally_consistent_map) is None


def test_oracle_set_view_ambiguity(set_ambiguous_pair):
    from trisym import set_valued_view

    left, right = set_ambiguous_pair
    dl, dr = three_way_from_rooted(left), three_way_from_rooted(right)
    assert set_valued_view(dl) == set_valued_view(dr)
    assert dl != dr
    assert not labelled_isomorphic(left, right)


def test_oracle_unrooted(five_leaf_unrooted):
    d = three_way_from_unrooted(five_leaf_unrooted)
    found = oracle_representable_three_way(d)
    assert found is not None
    assert labelled_isomorphic(found, five_leaf_unrooted)


def test_oracle_memoization_consistency(ab_table):
    rng = random.Random(8)
    for _ in range(50):
        d = random_multiset_map(names(5), ab_table, rng)
        first = oracle_representable_three_way(d)
        second = oracle_representable_three_way(d)
        assert (first is None) == (second is None)


def test_bounds_are_enforced(ab_table):
    with pytest.raises(EnumerationError):
        EnumerationSpec(names(7), tuple(ab_table), ROOTED, True)
    big = SymbolTable(["A", "B", "C", "D"])
    with pytest.raises(EnumerationError):
        EnumerationSpec(names(4), tuple(big), ROOTED, True)
    with pytest.raises(EnumerationError, match="leaf sets of 1 to 6 leaves are supported"):
        EnumerationSpec((), tuple(ab_table), ROOTED, True)
    with pytest.raises(EnumerationError, match="symbol sets of 1 to 3 symbols are supported"):
        EnumerationSpec(names(4), (), ROOTED, True)


def test_one_leaf_is_too_few_for_either_flavor(ab_table):
    with pytest.raises(EnumerationError, match="rooted enumeration needs at least 2 leaves"):
        EnumerationSpec(names(1), tuple(ab_table), ROOTED, True)
    with pytest.raises(EnumerationError, match="unrooted enumeration needs at least 3 leaves"):
        EnumerationSpec(names(2), tuple(ab_table), UNROOTED, True)


def test_census_counts(ab_table):
    spec = EnumerationSpec(names(4), tuple(ab_table), ROOTED, True)
    got = census(spec)
    assert got["shapes"] == 26
    assert got["labelled"] == 2 * 26


# -- the search against the labelling index it replaced ------------------------------

def reference_key(d):
    flavor = ROOTED if d.kind == KIND_MULTISET else UNROOTED
    return flavor, d.ground, tuple(sorted(s.name for s in d.image_symbols()))


_reference_index: dict = {}  # the index for the last reference_key asked for


def reference_oracle(d):
    """The first discriminating labelled tree over d's image symbols, in
    enumerate_labelled_trees order, whose induced map equals d, or None;
    found through an index of every such tree's map, which is built for
    each reference_key in turn."""
    key = reference_key(d)
    if key not in _reference_index:
        _reference_index.clear()
        flavor, ground, symbols = key
        construct = three_way_from_rooted if flavor == ROOTED else three_way_from_unrooted
        spec = EnumerationSpec(ground, tuple(SymbolTable(symbols)), flavor)
        index, shared = {}, {}
        for lt in enumerate_labelled_trees(spec):
            values = tuple(shared.setdefault(v, v) for v in construct(lt).values)
            index.setdefault(values, lt)
        _reference_index[key] = index
    return _reference_index[key].get(d.values)


def seeded_maps(n, seed, trees):
    """Maps on n leaves of both flavors over 1-3 symbols: per flavor and
    symbol count, the maps of `trees` random trees (discriminating or not),
    a one-cell mutant of each (a copy, over one symbol), and as many random
    maps.  Each map is laid out over one of two ground orders."""
    rng = random.Random(seed)
    orders = (names(n), tuple(rng.sample(names(n), n)))
    for flavor in (ROOTED, UNROOTED):
        construct = three_way_from_rooted if flavor == ROOTED else three_way_from_unrooted
        for k in (1, 2, 3):
            symbols = ("A", "B", "C")[:k]
            for _ in range(trees):
                lt = random_labelled_tree(rng.randrange(2**31), n - (flavor == UNROOTED),
                                          flavor, symbol_names=symbols,
                                          discriminating=k > 1 and rng.random() < 0.7)
                d = construct(lt)
                alphabet = list(d.symbols) if flavor == UNROOTED else multiset_alphabet(d.symbols)
                values = list(d.values)
                i = rng.randrange(len(values))
                values[i] = rng.choice([v for v in alphabet if v != values[i]] or alphabet)
                random_values = [rng.choice(alphabet) for _ in values]
                for vals in (d.values, values, random_values):
                    m = ThreeWayMap(d.kind, d.ground, vals, d.symbols)
                    ground = rng.choice(orders)
                    yield ThreeWayMap(d.kind, ground, [m.value(*t) for t in combinations(ground, 3)],
                                      d.symbols)


def assert_search_matches_the_index(maps):
    found = 0
    for d in sorted(maps, key=reference_key):
        got, want = oracle_representable_three_way(d), reference_oracle(d)
        assert (got is None) == (want is None), d.values
        if want is not None:
            assert tree_to_text(got) == tree_to_text(want)
            assert got.labels == want.labels
            assert got.tree.adj == want.tree.adj and got.tree.root == want.tree.root
            found += 1
    return found


@pytest.mark.parametrize("n", [4, 5])
def test_search_returns_the_first_indexed_tree(n, quartet_trees):
    """On seeded clean, mutated and random maps over two ground orders, the
    shape scan returns exactly the tree the labelling index returns.  On
    four leaves this includes the seven quartet patterns: three trees
    represent pattern 3, and the search must return the first."""
    maps = list(seeded_maps(n, 60 + n, trees=6))
    if n == 4:
        maps += [three_way_from_rooted(lt) for lt in quartet_trees.values()]
    assert assert_search_matches_the_index(maps) > 0


@pytest.mark.slow
def test_search_returns_the_first_indexed_tree_on_six_leaves():
    assert assert_search_matches_the_index(seeded_maps(6, 66, trees=4)) > 0
