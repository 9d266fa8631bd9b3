"""Loaded maps share equal values, and unrooted tree-maps are laid out over
a given ground order."""

import random
from itertools import combinations

import pytest

from trisym import (KIND_MULTISET, KIND_SYMBOL, MapError, load_three_way_map,
                    load_two_way_map, save_three_way_map, three_way_from_rooted,
                    three_way_from_unrooted, tree_to_text)
from trisym import reconstruct
from trisym.reconstruct import decide_tree_map
from trisym.trees import ROOTED, UNROOTED

from test_trees import random_labelled_tree


def values_are_shared(d) -> bool:
    """Equal values of the map are one object."""
    return len({id(v) for v in d.values}) == len(set(d.values))


@pytest.mark.parametrize("seed", range(6))
def test_loaded_maps_share_equal_values(seed):
    rng = random.Random(seed)
    ground = [str(i) for i in range(1, 8)]
    rows = "".join(f"{x} {y} {z} {rng.choice(('2A+B', '3C', 'A+B+C'))}\n"
                   for x, y, z in combinations(ground, 3))
    d = load_three_way_map("x y z value\n" + rows, KIND_MULTISET)
    assert values_are_shared(d)
    plain = load_three_way_map(
        "x y z value\n" + "".join(f"{x} {y} {z} {rng.choice('ABC')}\n"
                                  for x, y, z in combinations(ground, 3)), KIND_SYMBOL)
    assert values_are_shared(plain)
    pairs = load_two_way_map(
        "x y value\n" + "".join(f"{x} {y} {rng.choice('AB')}\n"
                                for x, y in combinations(ground, 2)))
    assert values_are_shared(pairs)


@pytest.mark.parametrize("seed", range(10))
def test_rooted_tree_maps_make_each_value_once_per_order_of_its_names(seed):
    lt = random_labelled_tree(seed, 6 + seed, ROOTED, symbol_names=("A", "B", "C"))
    d = three_way_from_rooted(lt)
    # two of a triple's three lcas coincide, so a value {L, H, H} is made at
    # most once for each of (L, H, H), (H, L, H) and (H, H, L)
    assert len({id(v) for v in d.values}) <= 3 * len(set(d.values))
    again = load_three_way_map(save_three_way_map(d), KIND_MULTISET)
    assert again == d and values_are_shared(again)


@pytest.mark.parametrize("seed", range(10))
def test_unrooted_tree_maps_laid_out_over_a_ground_order(seed):
    lt = random_labelled_tree(seed, 6 + seed, UNROOTED, symbol_names=("A", "B", "C"))
    ground = list(lt.leaf_order)
    random.Random(seed).shuffle(ground)
    default, laid_out = three_way_from_unrooted(lt), three_way_from_unrooted(lt, ground)
    assert laid_out.ground == tuple(ground)
    assert laid_out == default and default == laid_out
    assert all(laid_out.value(*t) == v for t, v in default.triples())
    assert three_way_from_unrooted(lt, lt.leaf_order).values == default.values


def test_a_ground_order_must_name_each_leaf_once():
    lt = random_labelled_tree(3, 6, UNROOTED)
    leaves = list(lt.leaf_order)
    for bad in (leaves[:-1], leaves + leaves[:1], leaves[:-1] + leaves[:1],
                leaves[:-1] + ["99"]):
        with pytest.raises(MapError, match="must name each leaf of the tree once"):
            three_way_from_unrooted(lt, bad)


def test_verification_maps_are_laid_out_over_the_input_ground(monkeypatch):
    # the loaded map's ground order is not the unrooted candidate's leaf
    # order; the rooted candidate is built over the map's ground
    built = []

    def recording(construct):
        def record(*args):
            built.append(construct(*args))
            return built[-1]
        return record

    for name in ("three_way_from_rooted", "three_way_from_unrooted"):
        monkeypatch.setattr(reconstruct, name, recording(getattr(reconstruct, name)))
    for seed in range(6):
        flavor, kind = [(UNROOTED, KIND_SYMBOL), (ROOTED, KIND_MULTISET)][seed % 2]
        lt = random_labelled_tree(seed, 9, flavor, symbol_names=("A", "B", "C"),
                                  discriminating=True)
        default = (three_way_from_unrooted if flavor == UNROOTED else three_way_from_rooted)(lt)
        lines = save_three_way_map(default).splitlines()[1:]
        random.Random(seed).shuffle(lines)
        d = load_three_way_map("x y z value\n" + "\n".join(lines), kind)
        decide = decide_tree_map if flavor == UNROOTED else reconstruct.decide_ultrametric
        built.clear()
        tree = decide(d).tree
        check, = built
        assert check.ground == d.ground and check.values == d.values
        if flavor == UNROOTED:
            assert tree.leaf_order != d.ground
            assert check == three_way_from_unrooted(tree)


# Trees reported for loaded maps whose ground order is a shuffle of the rows;
# recorded before verification moved onto the map's own ground order.
REPORTED_TREES = [
    "unrooted\n((3,4)C,5,(((8,6)C,1)B,(7,2)B)C)B;\n",
    "unrooted\n(((8,5,7,1,2)B,6)C,3,4)B;\n",
    "unrooted\n(((2,1)A,6,3)C,7,(4,8,5)C)B;\n",
]


@pytest.mark.parametrize("seed", range(3))
def test_reported_tree_text_is_unchanged(seed):
    lt = random_labelled_tree(seed, 7, UNROOTED, symbol_names=("A", "B", "C"),
                              discriminating=True)
    lines = save_three_way_map(three_way_from_unrooted(lt)).splitlines()[1:]
    random.Random(seed).shuffle(lines)
    d = load_three_way_map("x y z value\n" + "\n".join(lines), KIND_SYMBOL)
    outcome = decide_tree_map(d)
    assert outcome.representable and tree_to_text(outcome.tree) == REPORTED_TREES[seed]

