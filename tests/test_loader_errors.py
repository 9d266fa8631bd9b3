"""The loaders' error messages, pinned byte for byte on a set of malformed
files, and what they accept around the rows: comments, blank lines and
free whitespace.  When a file has several faults, the message names the one
the loader meets first."""

from itertools import combinations

import pytest

from trisym import KIND_MULTISET, KIND_SYMBOL, MapError, load_three_way_map, load_two_way_map
from trisym.symbols import SymbolError

# Each value token per codomain: two distinct good values, a bad value, and a
# value with a zero count.
TOKENS = {
    KIND_SYMBOL: {"v": "A", "w": "B", "bad": "1A", "zero": "0A"},
    KIND_MULTISET: {"v": "2A+B", "w": "3B", "bad": "A+", "zero": "0A+3B"},
}

THREE_WAY_HEADER = "x y z value\n"

# (case, rows after the header, {codomain: (error type, message)}); a message
# that is the same for both codomains is given once, as a plain pair.
THREE_WAY_CASES = [
    ("repeated name", "1 2 3 {v}\n1 1 2 {v}\n",
     (MapError, "triple (1,1,2) repeats a name")),
    ("duplicate row in a permuted order", "1 2 3 {v}\n1 2 4 {v}\n3 1 2 {w}\n1 3 4 {v}\n",
     (MapError, "duplicate row for triple (3,1,2)")),
    ("missing row names the first in combinations order",
     "2 10 3 {v}\n2 10 4 {v}\n2 3 4 {v}\n",
     (MapError, "missing value for triple ['10', '3', '4']")),
    ("first of two missing rows", "1 2 3 {v}\n2 3 4 {v}\n",
     (MapError, "missing value for triple ['1', '2', '4']")),
    ("bad value after a duplicate", "1 2 3 {v}\n2 1 3 {v}\n1 2 4 {bad}\n",
     (MapError, "duplicate row for triple (2,1,3)")),
    ("bad value before a duplicate", "1 2 3 {bad}\n2 1 3 {v}\n",
     {KIND_SYMBOL: (SymbolError, "bad symbol name '1A'"),
      KIND_MULTISET: (SymbolError, "bad multiset term '' in 'A+'")}),
    ("repeated name before a bad value on its row", "1 2 2 {bad}\n",
     (MapError, "triple (1,2,2) repeats a name")),
    ("wrong column count", "1 2 3 {v}\n1 2 4\n",
     (MapError, "line 3: expected 4 columns, got 3")),
    ("wrong column count after a duplicate", "1 2 3 {v}\n1 3 2 {v}\n1 2 4 {v} {v}\n",
     (MapError, "line 4: expected 4 columns, got 5")),
    ("bad leaf name", "1 2 3 {v}\n1 2 a(b {v}\n",
     (MapError, "bad leaf name 'a(b'")),
    ("bad leaf name after a duplicate", "1 2 3 {v}\n3 2 1 {v}\n1 2 a;b {v}\n",
     (MapError, "bad leaf name 'a;b'")),
    ("zero count", "1 2 3 {zero}\n",
     {KIND_SYMBOL: (SymbolError, "bad symbol name '0A'"),
      KIND_MULTISET: (SymbolError, "multiset term '0A' in '0A+3B' has count 0")}),
    ("header only", "",
     (MapError, "three-way maps need a ground set of size at least 3")),
    # near the saved form, which is read by columns: each must reach the row pass
    ("ragged rows with the saved word stream", "1 2 3\n{v} 1 2 4 {v}\n1 3 4 {v}\n2 3 4 {v}\n",
     (MapError, "line 2: expected 4 columns, got 3")),
    ("saved form whose first row repeats a name", "1 1 2 {v}\n1 1 3 {v}\n1 2 3 {v}\n1 2 3 {v}\n",
     (MapError, "triple (1,1,2) repeats a name")),
    ("saved form whose key-column run repeats the first name",
     "1 2 3 {v}\n1 2 1 {v}\n1 3 1 {v}\n2 3 1 {v}\n",
     (MapError, "triple (1,2,1) repeats a name")),
    ("saved form with a bad leaf name", "1 2 3 {v}\n1 2 a(b {v}\n1 3 a(b {v}\n2 3 a(b {v}\n",
     (MapError, "bad leaf name 'a(b'")),
    ("saved form with bad values", "1 2 3 {v}\n1 2 4 {bad}\n1 3 4 {w}\n2 3 4 {zero}\n",
     {KIND_SYMBOL: (SymbolError, "bad symbol name '1A'"),
      KIND_MULTISET: (SymbolError, "bad multiset term '' in 'A+'")}),
    ("saved form without its last row",
     "".join(f"{x} {y} {z} {{v}}\n" for x, y, z in list(combinations("12345", 3))[:-1]),
     (MapError, "missing value for triple ['3', '4', '5']")),
    # multiset counts are one ASCII digit after any leading zeros, refused
    # before a count is converted or a list of its length is built; each
    # value is read once in the saved form and once, after a tab, by the row pass
    *[(f"{case}{path}", f"1 2 3{sep}{value}\n",
       {KIND_SYMBOL: (SymbolError, f"bad symbol name {value!r}"),
        KIND_MULTISET: (SymbolError, message.format(repr(value)))})
      for case, value, message in [
          ("count of 10", "10A", "multiset term {0} in {0} has a count of 10 or more"),
          ("count of 99", "99A", "multiset term {0} in {0} has a count of 10 or more"),
          ("count beyond a machine word", "1000000000000000000000A",
           "multiset term {0} in {0} has a count of 10 or more"),
          ("count of 5,000 digits", "1" * 5000 + "A",
           "multiset term {0} in {0} has a count of 10 or more"),
          ("count of 10 after leading zeros", "0010A",
           "multiset term {0} in {0} has a count of 10 or more"),
          ("non-ASCII digit", "\u0663A", "bad multiset term {0} in {0}"),
          ("count of 4", "4A", "multiset {0} has 4 entries, expected 3"),
          ("count of 9", "9A", "multiset {0} has 9 entries, expected 3"),
          ("count of 0 after leading zeros", "000A", "multiset term {0} in {0} has count 0"),
      ]
      for path, sep in ((" in the saved form", " "), (" in the row pass", "\t"))],
]


def _expected(spec, kind):
    return spec[kind] if isinstance(spec, dict) else spec


@pytest.mark.parametrize("kind", [KIND_SYMBOL, KIND_MULTISET])
@pytest.mark.parametrize("case, rows, spec", THREE_WAY_CASES,
                         ids=[c[0] for c in THREE_WAY_CASES])
def test_three_way_loader_messages(kind, case, rows, spec):
    err_type, message = _expected(spec, kind)
    with pytest.raises(ValueError) as info:
        load_three_way_map(THREE_WAY_HEADER + rows.format(**TOKENS[kind]), kind)
    assert type(info.value) is err_type
    assert str(info.value) == message


@pytest.mark.parametrize("kind", [KIND_SYMBOL, KIND_MULTISET])
@pytest.mark.parametrize("text, message", [
    ("", "three-way map text must start with the header 'x y z value'"),
    ("# only a comment\n\n", "three-way map text must start with the header 'x y z value'"),
    ("x y z val\n1 2 3 A\n", "three-way map text must start with the header 'x y z value'"),
    ("1 2 3 A\nx y z value\n", "three-way map text must start with the header 'x y z value'"),
    ("x y value\n1 2 3 A\n", "line 1: expected 4 columns, got 3"),
])
def test_three_way_header_messages(kind, text, message):
    with pytest.raises(MapError) as info:
        load_three_way_map(text, kind)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", [KIND_SYMBOL, KIND_MULTISET])
def test_three_way_loader_skips_comments_and_blank_lines(kind):
    t = TOKENS[kind]
    text = ("# a map\n\n  x y z value  \n   # indented comment\n"
            f"4\t2 3  {t['v']}\n\n4 2 1 {t['w']}\r\n# between rows\n"
            f"4 3 1 {t['v']}\n  2 3 1 {t['w']}  \n")
    d = load_three_way_map(text, kind)
    assert d.ground == ("4", "2", "3", "1")
    assert [d.value(*s) for s in ("423", "421", "431", "231")] == \
        [load_three_way_map(f"x y z value\n1 2 3 {t[k]}\n", kind).values[0]
         for k in ("v", "w", "v", "w")]


TWO_WAY_HEADER = "x y value\n"

TWO_WAY_CASES = [
    ("repeated name", "1 2 A\n2 2 A\n", MapError, "pair (2,2) repeats a name"),
    ("duplicate row in a permuted order", "1 2 A\n1 3 A\n2 1 B\n2 3 A\n",
     MapError, "duplicate row for pair (2,1)"),
    ("missing row names the first in combinations order", "2 10 A\n2 3 A\n",
     MapError, "missing value for pair ['10', '3']"),
    ("bad value after a duplicate", "1 2 A\n2 1 A\n1 3 1A\n",
     MapError, "duplicate row for pair (2,1)"),
    ("bad value before a duplicate", "1 2 1A\n2 1 A\n", SymbolError, "bad symbol name '1A'"),
    ("wrong column count", "1 2 A\n1 3\n", MapError, "line 3: expected 3 columns, got 2"),
    ("bad leaf name", "1 2 A\n1 x:y A\n", MapError, "bad leaf name 'x:y'"),
    ("zero count", "1 2 0A\n", SymbolError, "bad symbol name '0A'"),
    ("two leaves", "1 2 A\n", MapError, "two-way maps need a ground set of size at least 3"),
    ("header only", "", MapError, "two-way maps need a ground set of size at least 3"),
    ("ragged rows with the saved word stream", "1 2\nA 1 3 A\n2 3 A\n",
     MapError, "line 2: expected 3 columns, got 2"),
    ("saved form whose first row repeats a name", "1 1 A\n1 2 A\n1 2 A\n",
     MapError, "pair (1,1) repeats a name"),
    ("saved form whose key-column run repeats the first name", "1 2 A\n1 1 A\n2 1 A\n",
     MapError, "pair (1,1) repeats a name"),
    ("saved form with a bad leaf name", "1 2 A\n1 x:y A\n2 x:y A\n",
     MapError, "bad leaf name 'x:y'"),
    ("saved form with bad values", "1 2 A\n1 3 1A\n2 3 0A\n", SymbolError, "bad symbol name '1A'"),
    ("saved form without its last row", "1 2 A\n1 3 A\n1 4 A\n2 3 A\n2 4 A\n",
     MapError, "missing value for pair ['3', '4']"),
]


@pytest.mark.parametrize("case, rows, err_type, message", TWO_WAY_CASES,
                         ids=[c[0] for c in TWO_WAY_CASES])
def test_two_way_loader_messages(case, rows, err_type, message):
    with pytest.raises(ValueError) as info:
        load_two_way_map(TWO_WAY_HEADER + rows)
    assert type(info.value) is err_type
    assert str(info.value) == message


def test_two_way_header_message_and_comments():
    with pytest.raises(MapError) as info:
        load_two_way_map("x y z\n1 2 A\n")
    assert str(info.value) == "two-way map text must start with the header 'x y value'"
    with pytest.raises(MapError) as info:
        load_two_way_map("x y z value\n")
    assert str(info.value) == "line 1: expected 3 columns, got 4"
    d = load_two_way_map("# pairs\n x y value\n\n3 1 A\n  # gap\n3\t2 B\n1 2 A \n")
    assert d.ground == ("3", "1", "2")
    assert [d.value(*p).name for p in ("31", "32", "12")] == ["A", "B", "A"]


@pytest.mark.parametrize("kind", [KIND_SYMBOL, KIND_MULTISET])
def test_a_saved_text_without_its_final_newline_loads_alike(kind):
    t = TOKENS[kind]
    rows = "".join(f"{x} {y} {z} {t['vw'[int(z) % 2]]}\n"
                   for x, y, z in combinations("1234", 3))
    saved = load_three_way_map(THREE_WAY_HEADER + rows, kind)
    assert load_three_way_map(THREE_WAY_HEADER + rows[:-1], kind) == saved
    pairs = "1 2 A\n1 3 B\n2 3 A\n"
    assert load_two_way_map(TWO_WAY_HEADER + pairs[:-1]) == load_two_way_map(TWO_WAY_HEADER + pairs)
