from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from trisym.symbols import (
    Symbol,
    SymbolCombination,
    SymbolError,
    SymbolTable,
    TripleMultiset,
    parse_multiset,
)


def test_interning_is_bijective():
    t = SymbolTable()
    a1 = t.intern("A")
    b = t.intern("B")
    a2 = t.intern("A")
    assert a1 is a2
    assert len(t) == 2


def test_symbol_equality_is_by_name_across_tables():
    t1, t2 = SymbolTable(["A", "B"]), SymbolTable(["B", "A"])
    assert t1.intern("A") == t2.intern("A")
    assert t1.intern("A") != t2.intern("B")


def test_bad_symbol_name_rejected():
    with pytest.raises(SymbolError):
        SymbolTable().intern("2A")


def test_majority_minority_cases():
    t = SymbolTable(["A", "B", "C"])
    a, b, c = t.intern("A"), t.intern("B"), t.intern("C")
    assert TripleMultiset.of(a, a, a).majority == a
    assert TripleMultiset.of(a, a, a).minority == a
    assert TripleMultiset.of(a, a, b).majority == a
    assert TripleMultiset.of(a, a, b).minority == b
    assert TripleMultiset.of(b, b, b).minority == b
    assert TripleMultiset.of(a, b, c).majority is None
    assert TripleMultiset.of(a, b, c).minority is None


def test_support():
    t = SymbolTable(["A", "B", "C"])
    a, b, c = list(t)
    assert TripleMultiset.of(a, a, b).support == {a, b}
    assert TripleMultiset.of(a, a, a).support == {a}
    assert TripleMultiset.of(a, b, c).support == {a, b, c}


def test_multiset_text_and_parse_roundtrip():
    t = SymbolTable()
    assert parse_multiset("2A+B", t).text() == "2A+B"
    assert parse_multiset("A+A+B", t) == parse_multiset("2A+B", t)
    assert parse_multiset("3A", t).text() == "3A"
    assert parse_multiset("B+A+C", t).text() == "A+B+C"
    with pytest.raises(SymbolError):
        parse_multiset("2A", t)
    with pytest.raises(SymbolError):
        parse_multiset("2A+2B", t)
    with pytest.raises(SymbolError):
        parse_multiset("0A+3B", t)


def test_multiset_equality_ignores_table_order():
    t1, t2 = SymbolTable(["A", "B"]), SymbolTable(["B", "A"])
    assert parse_multiset("2A+B", t1) == parse_multiset("2A+B", t2)
    assert hash(parse_multiset("2A+B", t1)) == hash(parse_multiset("2A+B", t2))

    def reference(names):
        counts = Counter(names)
        if len(counts) == 3:
            return None, None
        ranked = sorted(counts, key=lambda n: (counts[n], n))
        return ranked[-1], ranked[0]

    for names in product("ABC", repeat=3):
        x = TripleMultiset.of(*(t1.intern(n) for n in names))
        y = TripleMultiset.of(*(t2.intern(n) for n in names))
        assert x == y and hash(x) == hash(y)
        assert x.entries == y.entries and x.text() == y.text()
        majority, minority = reference(names)
        for ms in (x, y):
            assert (ms.majority and ms.majority.name) == majority
            assert (ms.minority and ms.minority.name) == minority
    a, b, c = (t2.intern(n) for n in "ABC")
    assert TripleMultiset((c, a, b)) == TripleMultiset.of(a, b, c)
    assert TripleMultiset((c, a, b)).entries == (a, b, c)


@given(st.lists(st.sampled_from("ABC"), min_size=3, max_size=3))
def test_reassembling_majority_and_minority(names):
    t = SymbolTable(["A", "B", "C"])
    ms = TripleMultiset.of(*(t.intern(n) for n in names))
    if len(ms.support) <= 2:
        assert TripleMultiset.of(ms.majority, ms.majority, ms.minority) == ms
    else:
        assert ms.majority is None and ms.minority is None


def test_combination_validity_worked_examples():
    t = SymbolTable(["a", "b"])
    s1 = SymbolCombination.from_multiset(parse_multiset("2a+b", t))
    s2 = SymbolCombination.from_multiset(parse_multiset("2b+a", t))
    s3 = SymbolCombination.from_multiset(parse_multiset("3a", t))
    third = (s1 + s2).scaled(Fraction(1, 3))
    assert third.is_valid()
    assert third.coefficients == {t.intern("a"): 1, t.intern("b"): 1}
    assert not (s3 - s1).is_valid()
    assert not (s1 + s3).scaled(Fraction(1, 2)).is_valid()
    assert (s1 + s3).scaled(Fraction(1, 2)).coefficient(t.intern("a")) == Fraction(5, 2)


def test_combination_singleton():
    t = SymbolTable(["a", "b"])
    a = t.intern("a")
    assert SymbolCombination({a: Fraction(1)}).singleton() == a
    assert SymbolCombination({a: Fraction(2)}).singleton() is None
    assert SymbolCombination.zero().singleton() is None


def test_combination_normalizes_zeros():
    t = SymbolTable(["a", "b"])
    a, b = t.intern("a"), t.intern("b")
    c = SymbolCombination({a: Fraction(1), b: Fraction(0)})
    assert c.coefficients == {a: Fraction(1)}
    assert (c - c) == SymbolCombination.zero()


@given(
    st.dictionaries(st.sampled_from("abc"),
                    st.fractions(min_value=-5, max_value=5), max_size=3),
    st.dictionaries(st.sampled_from("abc"),
                    st.fractions(min_value=-5, max_value=5), max_size=3),
    st.fractions(min_value=-4, max_value=4),
)
def test_combination_arithmetic_is_exact_and_linear(c1, c2, q):
    t = SymbolTable(["a", "b", "c"])
    x = SymbolCombination({t.intern(k): v for k, v in c1.items()})
    y = SymbolCombination({t.intern(k): v for k, v in c2.items()})
    assert (x + y).scaled(q) == x.scaled(q) + y.scaled(q)
    assert (x + y) - y == x
    for sym, coef in (x + y).coefficients.items():
        assert coef == x.coefficient(sym) + y.coefficient(sym)


def test_combination_text():
    t = SymbolTable(["a", "b"])
    a, b = t.intern("a"), t.intern("b")
    assert SymbolCombination({a: Fraction(-2, 3), b: Fraction(5, 3)}).text() == "(-2/3)a+(5/3)b"
    assert SymbolCombination({a: Fraction(1), b: Fraction(-1)}).text() == "a-1b"
    assert SymbolCombination.zero().text() == "0"
