import pytest
from hypothesis import given, settings, strategies as st

from trisym import (
    TreeError,
    farris_inverse,
    farris_project,
    farris_transform,
    is_discriminating,
    labelled_isomorphic,
    parse_newick,
    three_way_from_unrooted,
    tree_to_text,
    two_way_from_tree,
)
from trisym.trees import ROOTED, UNROOTED

from test_trees import random_labelled_tree, seeds


def test_transform_example(five_leaf_unrooted):
    result = farris_transform(five_leaf_unrooted, "1")
    rooted = result.rooted
    assert rooted.flavor == ROOTED
    assert set(rooted.leaf_order) == {"2", "3", "4", "5"}
    assert rooted.labels[rooted.tree.root].name == "B"
    # interior correspondence carries the labels across
    for old, new in result.vertex_map.items():
        assert five_leaf_unrooted.labels[old] == rooted.labels[new]
    assert len(result.vertex_map) == len(five_leaf_unrooted.tree.interior_vertices())


def test_transform_star():
    star = parse_newick("unrooted", "(1,2,3,4)A;")
    rooted = farris_transform(star, "3").rooted
    assert labelled_isomorphic(rooted, parse_newick("rooted", "(1,2,4)A;"))


def test_transform_quartet(ab_table):
    quartet = parse_newick("unrooted", "(1,2,(3,4)B)A;", ab_table)
    rooted = farris_transform(quartet, "1").rooted
    assert labelled_isomorphic(rooted, parse_newick("rooted", "(2,(3,4)B)A;", ab_table))


def test_transform_validates_input(five_leaf_unrooted, five_leaf_rooted):
    with pytest.raises(TreeError):
        farris_transform(five_leaf_unrooted, "9")
    with pytest.raises(TreeError):
        farris_transform(five_leaf_rooted, "1")
    small = parse_newick("unrooted", "(1,2,3)A;")
    with pytest.raises(TreeError):
        farris_transform(small, "1")


def test_inverse_rejects_name_collision(five_leaf_rooted):
    with pytest.raises(TreeError):
        farris_inverse(five_leaf_rooted, "3")


def test_round_trip_example(five_leaf_unrooted):
    rooted = farris_transform(five_leaf_unrooted, "1").rooted
    back = farris_inverse(rooted, "1")
    assert labelled_isomorphic(back, five_leaf_unrooted)


def test_inverse_layout():
    """r is attached in place: each vertex lists its parent, then its
    children, and the root its children, then r.  The first leaf sits below
    B, so the text is laid out from B and starts with its parent A."""
    rooted = parse_newick("rooted", "((4,(1,2)C)B,3)A;")
    assert tree_to_text(farris_inverse(rooted, "r")) == "unrooted\n((3,r)A,4,(1,2)C)B;\n"


def test_rooted_star_inverse():
    rooted = parse_newick("rooted", "(1,2,4)A;")
    back = farris_inverse(rooted, "3")
    assert labelled_isomorphic(back, parse_newick("unrooted", "(1,2,4,3)A;"))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6), st.integers(min_value=0, max_value=5))
def test_round_trip_random(seed, n, which):
    lt = random_labelled_tree(seed, n, UNROOTED)
    r = lt.leaf_order[which % len(lt.leaf_order)]
    result = farris_transform(lt, r)
    assert labelled_isomorphic(farris_inverse(result.rooted, r), lt)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6), st.integers(min_value=0, max_value=5))
def test_inverse_then_transform(seed, n, which):
    rooted = random_labelled_tree(seed, n, ROOTED)
    fresh = "new"
    back = farris_transform(farris_inverse(rooted, fresh), fresh).rooted
    assert labelled_isomorphic(back, rooted)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6), st.integers(min_value=0, max_value=5))
def test_transform_preserves_discriminating(seed, n, which):
    lt = random_labelled_tree(seed, n, UNROOTED, discriminating=True)
    assert is_discriminating(lt)
    r = lt.leaf_order[which % len(lt.leaf_order)]
    assert is_discriminating(farris_transform(lt, r).rooted)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6), st.integers(min_value=0, max_value=5))
def test_map_level_coherence(seed, n, which):
    """Projecting the tree's three-way map through r equals the two-way map
    of the transformed tree."""
    lt = random_labelled_tree(seed, n, UNROOTED)
    r = lt.leaf_order[which % len(lt.leaf_order)]
    via_tree = two_way_from_tree(farris_transform(lt, r).rooted)
    via_map = farris_project(three_way_from_unrooted(lt), r)
    assert via_tree == via_map
