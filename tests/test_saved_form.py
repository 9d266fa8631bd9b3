"""The loaders read a text in the saved form (what save_three_way_map and
save_two_way_map write) by columns, and any other text by the row pass,
maps._rows.  Both paths must give the same map: the same ground order, the
same value objects slot by slot, and the same symbol table order.  The
guard test makes the row pass raise, so a saved text that stopped being
read by columns would fail it."""

import random

import pytest

from trisym import (KIND_MULTISET, KIND_SYMBOL, load_three_way_map, load_two_way_map, maps,
                    restrict, save_three_way_map, save_two_way_map, three_way_from_rooted,
                    three_way_from_unrooted, two_way_from_tree)
from trisym.trees import ROOTED, UNROOTED

from test_trees import random_labelled_tree

SYMBOLS = ("A", "B", "C", "D")


def _tree_map(seed, leaves, kind):
    """The map of a random tree on at least 4 leaves, laid out over a
    shuffled ground order and restricted to the first `leaves` names."""
    rng = random.Random(seed)
    n = max(leaves, 4)
    if kind == KIND_SYMBOL:
        lt = random_labelled_tree(seed, n - 1, UNROOTED, symbol_names=SYMBOLS)
        construct = three_way_from_unrooted
    else:
        lt = random_labelled_tree(seed, n, ROOTED, symbol_names=SYMBOLS)
        construct = three_way_from_rooted
    ground = rng.sample(lt.leaf_order, n)
    return restrict(construct(lt, ground), ground[:leaves])


def _pair_map(seed, leaves):
    return two_way_from_tree(random_labelled_tree(seed, leaves, ROOTED, symbol_names=SYMBOLS))


def _layout(d):
    """Each slot's first slot holding the same object: the map's sharing."""
    first = {}
    return [first.setdefault(id(v), i) for i, v in enumerate(d.values)]


def _reversed_rows(text):
    header, *rows = text.splitlines(keepends=True)
    return header + "".join(reversed(rows))


@pytest.fixture
def row_passes(monkeypatch):
    """The number of texts the row pass has read."""
    calls = []
    rows = maps._rows
    monkeypatch.setattr(maps, "_rows", lambda *args: calls.append(1) or rows(*args))
    return calls


def _assert_same_load(by_columns, by_rows):
    assert by_columns.ground == by_rows.ground
    assert by_columns == by_rows
    assert _layout(by_columns) == _layout(by_rows)
    assert list(by_columns.symbols) == list(by_rows.symbols)


@pytest.mark.parametrize("kind", [KIND_SYMBOL, KIND_MULTISET])
@pytest.mark.parametrize("leaves", range(3, 13))
def test_columns_and_row_pass_load_the_same_map(kind, leaves, row_passes):
    for seed in range(3):
        d = _tree_map(100 * leaves + seed, leaves, kind)
        text = save_three_way_map(d)
        by_columns = load_three_way_map(text, kind)
        assert not row_passes
        by_rows = load_three_way_map("# c\n" + text, kind)
        assert len(row_passes) == 1
        assert by_columns == d and by_columns.ground == d.ground
        _assert_same_load(by_columns, by_rows)
        if kind == KIND_SYMBOL:  # one Symbol per name: the very objects
            assert all(a is b for a, b in zip(by_columns.values, by_rows.values))
        assert load_three_way_map(_reversed_rows(text), kind) == by_columns
        row_passes.clear()


@pytest.mark.parametrize("leaves", range(3, 13))
def test_pair_maps_load_the_same_by_either_path(leaves, row_passes):
    for seed in range(3):
        d = _pair_map(100 * leaves + seed, leaves)
        text = save_two_way_map(d)
        by_columns = load_two_way_map(text)
        assert not row_passes
        by_rows = load_two_way_map("# c\n" + text)
        assert by_columns == d and by_columns.ground == d.ground
        _assert_same_load(by_columns, by_rows)
        assert all(a is b for a, b in zip(by_columns.values, by_rows.values))
        assert load_two_way_map(_reversed_rows(text)) == by_columns
        row_passes.clear()


def test_saved_texts_load_without_the_row_pass(monkeypatch):
    def no_row_pass(*args):
        raise AssertionError("a saved-form text reached the row pass")

    monkeypatch.setattr(maps, "_rows", no_row_pass)
    for leaves in (3, 10, 48):
        for kind in (KIND_SYMBOL, KIND_MULTISET):
            d = _tree_map(leaves, leaves, kind)
            assert load_three_way_map(save_three_way_map(d), kind) == d
        d = _pair_map(leaves, leaves)
        assert load_two_way_map(save_two_way_map(d)) == d
