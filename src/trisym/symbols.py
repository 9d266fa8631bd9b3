"""Interned symbols, size-3 multisets of symbols, and exact rational combinations."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Mapping, Optional

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TERM_RE = re.compile(r"([0-9]*)([A-Za-z][A-Za-z0-9_]*)")


class SymbolError(ValueError):
    """Bad symbol name or malformed multiset text."""


@dataclass(frozen=True, eq=False)
class Symbol:
    """A label from the alphabet, one object per name in the process:
    Symbol(name), every table, copying and pickling give the registered
    object, so equality and hashing are object identity.
    """

    name: str
    _registry: ClassVar[dict[str, "Symbol"]] = {}

    def __new__(cls, name: str) -> "Symbol":
        # named before it is published, so no thread can see a bare object
        sym = object.__new__(cls)
        object.__setattr__(sym, "name", name)
        return cls._registry.setdefault(name, sym)

    def __reduce__(self) -> tuple:
        return Symbol, (self.name,)

    def __repr__(self) -> str:
        return f"Symbol({self.name})"


class SymbolTable:
    """Interns display names to Symbols, one Symbol per name, kept in the
    order the names were first interned."""

    def __init__(self, names: Iterable[str] = ()):
        self._by_name: dict[str, Symbol] = {}
        for n in names:
            self.intern(n)

    def intern(self, name: str) -> Symbol:
        sym = self._by_name.get(name)
        if sym is None:
            if not _NAME_RE.fullmatch(name):
                raise SymbolError(f"bad symbol name {name!r}")
            sym = self._by_name[name] = Symbol(name)
        return sym

    def get(self, name: str) -> Optional[Symbol]:
        return self._by_name.get(name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True, eq=False, init=False)
class TripleMultiset:
    """A multiset of exactly three symbols, stored in name order, one object
    per multiset in the process: TripleMultiset(entries) in any entry order,
    every table, copying and pickling give the registered object, so
    equality and hashing are object identity.
    """

    entries: tuple[Symbol, Symbol, Symbol]
    _registry: ClassVar[dict[tuple, "TripleMultiset"]] = {}

    def __new__(cls, entries: Iterable[Symbol]) -> "TripleMultiset":
        entries = tuple(sorted(entries, key=lambda s: s.name))
        ms = cls._registry.get(entries)
        if ms is None:
            if len(entries) != 3:
                raise SymbolError("a TripleMultiset has exactly three entries")
            # filled before it is published, so no thread can see a bare object
            ms = object.__new__(cls)
            object.__setattr__(ms, "entries", entries)
            ms = cls._registry.setdefault(entries, ms)
        return ms

    def __reduce__(self) -> tuple:
        return TripleMultiset, (self.entries,)

    @classmethod
    def of(cls, a: Symbol, b: Symbol, c: Symbol) -> "TripleMultiset":
        return cls((a, b, c))

    @property
    def support(self) -> frozenset[Symbol]:
        """The underlying set of the multiset."""
        return frozenset(self.entries)

    @property
    def majority(self) -> Optional[Symbol]:
        """The symbol occurring at least twice; None when all three entries differ."""
        a, b, c = self.entries
        return b if a == b or b == c else None

    @property
    def minority(self) -> Optional[Symbol]:
        """The symbol occurring exactly once; equals majority when all entries
        coincide, None when all three entries differ."""
        a, b, c = self.entries
        if b == c:
            return a
        return c if a == b else None

    def text(self) -> str:
        """Coefficient form, e.g. '2A+B', '3A', 'A+B+C' (terms in name order)."""
        counts = Counter(s.name for s in self.entries)
        return "+".join(f"{k}{name}" if k > 1 else name for name, k in counts.items())

    def __repr__(self) -> str:
        return f"TripleMultiset({self.text()})"


def parse_multiset(text: str, table: SymbolTable) -> TripleMultiset:
    """Parse '2A+B', 'A+A+B' or '3A' into a TripleMultiset, interning names."""
    entries: list[Symbol] = []
    for term in text.strip().split("+"):
        term = term.strip()
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise SymbolError(f"bad multiset term {term!r} in {text!r}")
        digits = m.group(1).lstrip("0")
        if len(digits) > 1:  # refused before int() or a list of that length
            raise SymbolError(f"multiset term {term!r} in {text!r} has a count of 10 or more")
        count = int(digits or "0") if m.group(1) else 1
        if count == 0:
            raise SymbolError(f"multiset term {term!r} in {text!r} has count 0")
        entries.extend([table.intern(m.group(2))] * count)
    if len(entries) != 3:
        raise SymbolError(f"multiset {text!r} has {len(entries)} entries, expected 3")
    return TripleMultiset.of(*entries)


class SymbolCombination:
    """A formal sum of symbols with exact rational coefficients.

    Zero coefficients are dropped, so the representation is normalized and
    equality is structural.  All arithmetic is exact.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Symbol, Fraction | int] = ()):
        cleaned = {}
        for sym, c in dict(coeffs).items():
            c = Fraction(c)
            if c != 0:
                cleaned[sym] = c
        self._coeffs = cleaned

    @classmethod
    def zero(cls) -> "SymbolCombination":
        return cls()

    @classmethod
    def from_multiset(cls, ms: TripleMultiset) -> "SymbolCombination":
        counts: Counter[Symbol] = Counter(ms.entries)
        return cls({s: Fraction(k) for s, k in counts.items()})

    @property
    def coefficients(self) -> dict[Symbol, Fraction]:
        return dict(self._coeffs)

    def coefficient(self, sym: Symbol) -> Fraction:
        return self._coeffs.get(sym, Fraction(0))

    def __add__(self, other: "SymbolCombination") -> "SymbolCombination":
        out = dict(self._coeffs)
        for s, c in other._coeffs.items():
            out[s] = out.get(s, Fraction(0)) + c
        return SymbolCombination(out)

    def __sub__(self, other: "SymbolCombination") -> "SymbolCombination":
        out = dict(self._coeffs)
        for s, c in other._coeffs.items():
            out[s] = out.get(s, Fraction(0)) - c
        return SymbolCombination(out)

    def scaled(self, q: Fraction | int) -> "SymbolCombination":
        q = Fraction(q)
        return SymbolCombination({s: c * q for s, c in self._coeffs.items()})

    def is_valid(self) -> bool:
        """True iff every coefficient is a non-negative integer."""
        return all(c.denominator == 1 and c >= 0 for c in self._coeffs.values())

    def singleton(self) -> Optional[Symbol]:
        """The unique symbol with coefficient 1 when the combination is exactly
        one symbol; otherwise None."""
        if len(self._coeffs) == 1:
            (sym, c), = self._coeffs.items()
            if c == 1:
                return sym
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolCombination):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def text(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for sym in sorted(self._coeffs, key=lambda s: s.name):
            c = self._coeffs[sym]
            if c == 1:
                parts.append(sym.name)
            elif c.denominator == 1:
                parts.append(f"{c.numerator}{sym.name}")
            else:
                parts.append(f"({c}){sym.name}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"SymbolCombination({self.text()})"
