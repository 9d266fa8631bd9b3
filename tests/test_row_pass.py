"""The row pass reads a map text in any row order, with the names of each
row in any order, and with comments, blank lines, tabs and free spaces
around the words, into the map that the saved form gives."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trisym import (
    KIND_MULTISET,
    KIND_PAIR,
    KIND_SYMBOL,
    SymbolTable,
    ThreeWayMap,
    TwoWayMap,
    load_three_way_map,
    load_two_way_map,
    save_three_way_map,
    save_two_way_map,
)

from conftest import multiset_alphabet

SYMBOLS = ("A", "B", "C", "D")
COMMENTS = ("# a comment", "   #indented", "#", "# x y z value")


def _random_map(kind, leaves, rng):
    ground = rng.sample([f"L{i}" for i in range(20)], leaves)
    table = SymbolTable(SYMBOLS[:rng.randint(1, len(SYMBOLS))])
    if kind == KIND_PAIR:
        return TwoWayMap(ground, [rng.choice(list(table)) for _ in combinations(ground, 2)], table)
    alphabet = multiset_alphabet(table) if kind == KIND_MULTISET else list(table)
    return ThreeWayMap(kind, ground, [rng.choice(alphabet) for _ in combinations(ground, 3)], table)


def _space(rng):
    return rng.choice([" ", "  ", "\t", " \t "])


def _messy(saved, rng):
    """The saved text with its rows shuffled, each row's names permuted, and
    comments, blank lines and mixed white space between and around them."""
    header, *rows = (line.split() for line in saved.splitlines())
    rng.shuffle(rows)
    lines = [rng.choice(COMMENTS), "", _space(rng).join(header) + _space(rng)]
    for *names, value in rows:
        rng.shuffle(names)
        if rng.random() < 0.2:
            lines.append(rng.choice(COMMENTS + ("", "  ")))
        lines.append(_space(rng).lstrip(" ") + _space(rng).join(names + [value]) + _space(rng))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n# end\n"])


def _first_appearance(text, width):
    rows = [w for w in map(str.split, text.splitlines()) if w and not w[0].startswith("#")]
    return tuple(dict.fromkeys(name for row in rows[1:] for name in row[:width - 1]))


@pytest.mark.parametrize("kind", [KIND_PAIR, KIND_SYMBOL, KIND_MULTISET])
@settings(max_examples=60, deadline=None)
@given(leaves=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
def test_a_messy_text_loads_as_its_saved_form(kind, leaves, seed):
    rng = random.Random(seed)
    d = _random_map(kind, leaves, rng)
    if kind == KIND_PAIR:
        saved = save_two_way_map(d)
        load = load_two_way_map
    else:
        saved = save_three_way_map(d)
        load = lambda text, symbols=None: load_three_way_map(text, kind, symbols)  # noqa: E731
    by_columns = load(saved)
    messy = _messy(saved, rng)
    by_rows = load(messy)
    assert by_rows == by_columns == d
    assert by_rows.ground == _first_appearance(messy, d._k + 1)
    assert sorted(s.name for s in by_rows.symbols) == sorted(s.name for s in by_columns.symbols)
    # on the saved-form load's table the row pass adds no symbol, and a
    # symbol or pair map reads the very same value objects
    names = list(by_columns.symbols)
    shared = load(messy, symbols=by_columns.symbols)
    assert shared == by_columns and list(shared.symbols) == names
    if kind != KIND_MULTISET:
        assert all(shared.value(*s) is v for s, v in by_columns._items())
