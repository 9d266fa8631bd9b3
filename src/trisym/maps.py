"""Total symbolic maps on 2-subsets and 3-subsets of a leaf set.

Values live in dense tables indexed by the lexicographic rank of the subset
over the ordered ground set, so lookups are O(1) and serialization order is
deterministic.  Maps are total by construction; partial data is a load-time
error, not a representable state.  Each map keeps a position for every
ground name, and each arity has one rank, _rank, that sorts the positions
of its names and gives the slot at their closed-form lexicographic rank, so
no lookup builds a key; value() and the loader both read slots through it.
The loaders read a saved-form text by columns and any other by one row pass
that serves both arities, with the same maps and messages either way.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache, partial
from itertools import chain, combinations, count, filterfalse
from math import comb
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .symbols import Symbol, SymbolTable, TripleMultiset, parse_multiset
from .trees import LabelledTree, ROOTED, UNROOTED, TreeError, _LEAF_RE, table_triples

KIND_SYMBOL = "symbol"
KIND_MULTISET = "multiset"
KIND_PAIR = "pair"  # the kind of every two-way map

Value = Union[Symbol, TripleMultiset]


class MapError(ValueError):
    """Malformed, partial, or inconsistent map data."""


@lru_cache(maxsize=None)
def _rank_offsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Offset tables over n positions: the k-subset a < b (< c) of range(n)
    has lexicographic rank first[a] + b for k = 2, and first[a] - second[b]
    + c for k = 3, with (first, second) = _rank_offsets(n, k)."""
    if k == 2:
        return (tuple(comb(n, 2) - comb(n - a, 2) - a - 1 for a in range(n)),)
    return (tuple(comb(n, 3) - comb(n - a, 3) + comb(n - a - 1, 2) for a in range(n)),
            tuple(comb(n - b, 2) + b + 1 for b in range(n)))


class _TotalMap:
    """What both arities share: one value per k-subset of the ground set,
    in combinations order, with each name's position and the rank offsets
    that each arity's value() reads a slot by."""

    __slots__ = ("ground", "values", "symbols", "_pos", "_offsets")
    _k, _what, _noun = 0, "", ""  # subset size, map name, subset name

    def __init__(self, ground: Sequence[str], values: Sequence[Value],
                 symbols: SymbolTable):
        self.ground = tuple(ground)
        n = len(self.ground)
        if n < 3:
            raise MapError(f"{self._what} maps need a ground set of size at least 3")
        self._pos = dict(zip(self.ground, range(n)))
        if len(self._pos) != n:
            raise MapError("duplicate names in the ground set")
        self._offsets = _rank_offsets(n, self._k)
        self.values = tuple(values)
        if len(self.values) != comb(n, self._k):
            raise MapError(f"{self._what} map table is not total")
        self.symbols = symbols

    @classmethod
    def _table_values(cls, ground: Sequence[str], table: Mapping) -> list:
        """The values of a table keyed by subsets, in combinations order."""
        norm = {frozenset(k): v for k, v in table.items()}
        values = []
        for subset in combinations(ground, cls._k):
            key = frozenset(subset)
            if key not in norm:
                raise MapError(f"missing value for {cls._noun} {sorted(subset)}")
            values.append(norm[key])
        return values

    def _items(self) -> Iterator[tuple[tuple[str, ...], Value]]:
        return zip(combinations(self.ground, self._k), self.values)

    def __eq__(self, other: object) -> bool:
        # a three-way map's kind is the type of its values, so equal values
        # mean equal kinds
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.ground == other.ground:
            return self.values == other.values
        if self._pos.keys() != other._pos.keys():
            return False
        return self.values == tuple(other.value(*s)  # type: ignore[attr-defined]
                                    for s in combinations(self.ground, self._k))

    def __hash__(self) -> int:
        return hash((frozenset(self.ground), frozenset(
            (frozenset(s), v) for s, v in self._items())))

    def image_symbols(self) -> set[Symbol]:
        if self.kind != KIND_MULTISET:  # type: ignore[attr-defined]
            return set(self.values)  # type: ignore[arg-type]
        return {s for v in set(self.values) for s in v.entries}  # type: ignore[union-attr]


class TwoWayMap(_TotalMap):
    """A total map from 2-subsets of the ground set into symbols."""

    __slots__ = ()
    _k, _what, _noun = 2, "two-way", "pair"
    kind = KIND_PAIR

    @classmethod
    def from_pairs(cls, ground: Sequence[str], table: Mapping[frozenset, Symbol] | Mapping[tuple, Symbol],
                   symbols: SymbolTable) -> "TwoWayMap":
        return cls(ground, cls._table_values(ground, table), symbols)

    @staticmethod
    def _rank(pos: Mapping[str, int], offsets: tuple, names: Sequence[str]) -> int:
        """The slot of a pair of names, or -1 for an unknown or repeated name."""
        x, y = names
        a, b = pos.get(x, -1), pos.get(y, -1)
        if a > b:
            a, b = b, a
        return -1 if a < 0 or a == b else offsets[0][a] + b

    def value(self, x: str, y: str) -> Symbol:
        i = self._rank(self._pos, self._offsets, (x, y))
        if i < 0:
            raise MapError(f"pair ({x},{y}) is not in the map")
        return self.values[i]  # type: ignore[return-value]

    pairs = _TotalMap._items

    def _pair_table(self) -> list[list[Optional[Symbol]]]:
        """The values as a square table: D(x,y) at [a][b] and [b][a] for the
        positions a != b of x and y, None on the diagonal."""
        first, n = self._offsets[0], len(self.ground)
        table = [[None] * (a + 1) + list(self.values[first[a] + a + 1:first[a] + n])
                 for a in range(n)]
        for a, row in enumerate(table):
            row[:a] = [above[a] for above in table[:a]]
        return table

    def triples(self) -> Iterator[tuple[tuple[str, ...], tuple[Symbol, Symbol, Symbol]]]:
        """((x, y, z), (D(x,y), D(x,z), D(y,z))) for every 3-subset, in
        combinations order, read off the upper-triangle table as a tree's
        three pairwise lcas are read off its lca table."""
        return zip(combinations(self.ground, 3), table_triples(self._pair_table()))


class ThreeWayMap(_TotalMap):
    """A total map from 3-subsets of the ground set into symbols (kind
    'symbol') or size-3 multisets of symbols (kind 'multiset')."""

    __slots__ = ("kind",)
    _k, _what, _noun = 3, "three-way", "triple"

    def __init__(self, kind: str, ground: Sequence[str], values: Sequence[Value],
                 symbols: SymbolTable):
        if kind not in (KIND_SYMBOL, KIND_MULTISET):
            raise MapError(f"unknown codomain kind {kind!r}")
        self.kind = kind
        super().__init__(ground, values, symbols)
        want = Symbol if kind == KIND_SYMBOL else TripleMultiset
        for v in filterfalse(want.__instancecheck__, self.values):  # the first bad value
            raise MapError(f"value {v!r} does not match codomain kind {kind!r}")

    @classmethod
    def from_triples(cls, kind: str, ground: Sequence[str],
                     table: Mapping, symbols: SymbolTable) -> "ThreeWayMap":
        return cls(kind, ground, cls._table_values(ground, table), symbols)

    @staticmethod
    def _rank(pos: Mapping[str, int], offsets: tuple, names: Sequence[str]) -> int:
        """The slot of a triple of names, or -1 for an unknown or repeated
        name: a compare-swap sort of the three positions."""
        x, y, z = names
        a, b, c = pos.get(x, -1), pos.get(y, -1), pos.get(z, -1)
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        return -1 if a < 0 or a == b or b == c else offsets[0][a] - offsets[1][b] + c

    def value(self, x: str, y: str, z: str) -> Value:
        i = self._rank(self._pos, self._offsets, (x, y, z))
        if i < 0:
            raise MapError(f"triple ({x},{y},{z}) is not in the map")
        return self.values[i]

    triples = _TotalMap._items

    def image(self) -> set[Value]:
        return set(self.values)


# -- constructions from labelled trees ---------------------------------------

def _vertex_labels(lt: LabelledTree) -> list[Optional[Symbol]]:
    return [lt.labels.get(v) for v in range(lt.tree.n_vertices)]


def two_way_from_tree(lt: LabelledTree, ground: Optional[Sequence[str]] = None) -> TwoWayMap:
    """D(x,y) = label of the least common ancestor, for a rooted labelled
    tree.  A ground order lays the map out as in three_way_from_unrooted."""
    if lt.flavor != ROOTED:
        raise MapError("two_way_from_tree needs a rooted labelled tree")
    label = _vertex_labels(lt)
    ground, lca = _lca_table(lt, ground)
    values = [label[lca[i][j]] for i, j in combinations(range(len(lca)), 2)]
    return TwoWayMap(ground, values, lt.symbols)


def _lca_table(lt: LabelledTree,
               ground: Optional[Sequence[str]]) -> tuple[Sequence[str], list[list[int]]]:
    """The tree's leaf-lca table with its ground order: the tree's leaf
    order, or the given order (the tree's leaves, each once), over which
    the table is then laid out."""
    lca = lt.tree.leaf_lca_table()
    if ground is None:
        return lt.leaf_order, lca
    at = dict(zip(lt.leaf_order, range(len(lca))))
    order = [at.get(name, -1) for name in ground]
    if sorted(order) != list(range(len(lca))):
        raise MapError("the ground order must name each leaf of the tree once")
    return ground, [[row[j] for j in order] for row in map(lca.__getitem__, order)]


def three_way_from_unrooted(lt: LabelledTree,
                            ground: Optional[Sequence[str]] = None) -> ThreeWayMap:
    """delta(x,y,z) = label of the median vertex, for an unrooted labelled
    tree: the deepest of the three pairwise lcas in one leaf-lca table.

    Given a ground order (the tree's leaves, each once), the table and so
    the map are laid out over it instead of the tree's leaf order, so the
    map compares with a map on that ground as one tuple.
    """
    if lt.flavor != UNROOTED:
        raise MapError("three_way_from_unrooted needs an unrooted labelled tree")
    if len(lt.leaf_order) < 4:
        raise MapError("unrooted tree-maps need at least 4 leaves")
    label = _vertex_labels(lt)
    ground, lca = _lca_table(lt, ground)
    # median_of, inlined: a call per triple took a quarter of the time
    values = [label[yz] if xy == xz else label[xz] if xy == yz else label[xy]
              for xy, xz, yz in table_triples(lca)]
    return ThreeWayMap(KIND_SYMBOL, ground, values, lt.symbols)


def three_way_from_rooted(lt: LabelledTree,
                          ground: Optional[Sequence[str]] = None) -> ThreeWayMap:
    """delta(x,y,z) = multiset of the three pairwise lca labels, for a rooted
    labelled tree.  One multiset is made per distinct triple of labels.
    A ground order lays the map out as in three_way_from_unrooted."""
    if lt.flavor != ROOTED:
        raise MapError("three_way_from_rooted needs a rooted labelled tree")
    label = _vertex_labels(lt)
    ground, lca = _lca_table(lt, ground)
    made: dict[tuple[Symbol, Symbol, Symbol], TripleMultiset] = {}
    values = []
    for key in table_triples([[label[v] for v in row] for row in lca]):
        v = made.get(key)
        if v is None:
            v = made[key] = TripleMultiset(key)
        values.append(v)
    return ThreeWayMap(KIND_MULTISET, ground, values, lt.symbols)


def three_way_from_two_way(d: TwoWayMap) -> ThreeWayMap:
    """Assemble delta(x,y,z) = {D(x,y), D(x,z), D(y,z)} from a two-way map."""
    if d.kind != KIND_PAIR:
        raise MapError("three_way_from_two_way applies to two-way maps")
    values = [TripleMultiset(vals) for _, vals in d.triples()]
    return ThreeWayMap(KIND_MULTISET, d.ground, values, d.symbols)


def restrict(d: ThreeWayMap, leaves: Iterable[str]) -> ThreeWayMap:
    """Restrict a three-way map to the 3-subsets of a leaf subset."""
    if d.kind == KIND_PAIR:
        raise MapError("restrict applies to three-way maps")
    names = set(leaves)
    sub = [n for n in d.ground if n in names]
    if missing := names - d._pos.keys():
        raise MapError(f"names {sorted(missing)} are not in the ground set")
    if len(sub) < 3:
        raise MapError("restriction needs at least 3 leaves")
    return ThreeWayMap(d.kind, sub, [d.value(*t) for t in combinations(sub, 3)], d.symbols)


def farris_project(d: ThreeWayMap, r: str) -> TwoWayMap:
    """The two-way slice through a fixed leaf: (x,y) -> delta(x,y,r)."""
    if d.kind != KIND_SYMBOL:
        raise MapError("farris_project applies to plain-symbol three-way maps")
    if r not in d.ground:
        raise MapError(f"leaf {r!r} is not in the ground set")
    if len(d.ground) < 4:
        raise MapError("farris_project needs at least 4 leaves")
    rest = [n for n in d.ground if n != r]
    values = [d.value(x, y, r) for x, y in combinations(rest, 2)]
    return TwoWayMap(rest, values, d.symbols)  # type: ignore[arg-type]


def set_valued_view(d: ThreeWayMap) -> dict[frozenset, frozenset]:
    """The derived set-valued map: each multiset value collapsed to its
    underlying set.  Used to contrast sets with multisets."""
    if d.kind != KIND_MULTISET:
        raise MapError("set_valued_view applies to multiset maps")
    return {frozenset(t): v.support for t, v in d.triples()}  # type: ignore[union-attr]


# -- text form ----------------------------------------------------------------

def _rows(text: str, header: list[str], what: str) -> tuple[list[list[str]], list[str]]:
    """The data rows of the text form and its ground set.

    Blank lines and lines whose first word starts with '#' are skipped;
    every other line must have as many columns as the header, which must
    come first.  The ground set is the names in the leading columns, in
    order of first appearance.
    """
    width = len(header)
    lines = [line.split() for line in text.splitlines()]
    rows = [parts for parts in lines if parts and parts[0][0] != "#"]
    if set(map(len, rows)) - {width}:
        lineno, parts = next((lineno, parts) for lineno, parts in enumerate(lines, 1)
                             if parts and parts[0][0] != "#" and len(parts) != width)
        raise MapError(f"line {lineno}: expected {width} columns, got {len(parts)}")
    if not rows or rows[0] != header:
        raise MapError(f"{what} map text must start with the header '{' '.join(header)}'")
    del rows[0]
    names = map(itemgetter(*range(width - 1)), rows)
    ground = list(dict.fromkeys(chain.from_iterable(names)))
    for name in filterfalse(_LEAF_RE.fullmatch, ground):  # one the tree text cannot carry
        raise MapError(f"bad leaf name {name!r}")
    return rows, ground


def _saved_text(header: list[str], ground: Sequence[str], texts: Iterable[str]) -> str:
    """The saved form: the header line, then one row per k-subset of the
    ground in combinations order, ending in its value text, with single
    spaces between words and a newline after every row."""
    rows = map(" ".join, map(add, combinations(ground, len(header) - 1), zip(texts)))
    return "\n".join(chain([" ".join(header)], rows)) + "\n"


def _saved_columns(text: str, header: list[str],
                   parse: Callable[[str], Value]) -> Optional[tuple[list[str], list]]:
    """The ground set and values of a saved-form text, read by columns, or
    None for any other text.  The ground is the first row's leading k-1
    names and the last key column of the n-k+1 rows that share them; it
    must be n distinct leaf names that, saved with the value column, give
    the text back.  Value texts are parsed in order of first appearance."""
    if not text.startswith(" ".join(header) + "\n"):
        return None
    k = len(header) - 1
    rows = text.count("\n") - 1
    n = next(m for m in count(3) if comb(m, k) >= rows)
    words = text.split(None, (k + 1) * (n - k + 2))  # through the rows that give the ground
    ground = words[k + 1:2 * k] + words[2 * k::k + 1][:n - k + 1]
    if comb(n, k) != rows or len(set(ground)) != n or not all(map(_LEAF_RE.fullmatch, ground)):
        return None
    values = text.split()[2 * k + 1::k + 1]
    if text != _saved_text(header, ground, values):
        return None
    parsed = {raw: parse(raw) for raw in dict.fromkeys(values)}
    return ground, list(map(parsed.__getitem__, values))


def _load(cls: type, text: str, parse: Callable[[str], Value], table: SymbolTable,
          *kind: str) -> _TotalMap:
    """The map of class cls (built as cls(*kind, ground, values, table))
    that a text gives: a saved-form text read by columns, any other in one
    pass that puts each row's value in the slot its names rank to, making
    no more slots than the rows it reads.  Each distinct value text is
    parsed once, so values spelled alike are one object.  A row whose names
    rank to no slot repeats a name, and a filled slot is a duplicate row;
    after the pass, the first empty slot in combinations order is the
    missing row.  The first fault in file order is the one reported."""
    k, noun, rank = cls._k, cls._noun, cls._rank
    header = [*"xyz"[:k], "value"]
    saved = _saved_columns(text, header, parse)
    if saved is not None:
        return cls(*kind, *saved, table)
    rows, ground = _rows(text, header, cls._what)
    pos = dict(zip(ground, range(len(ground))))
    offsets = _rank_offsets(len(ground), k)
    total = comb(len(ground), k)
    # a slot per subset only when the rows can fill them all; with fewer rows
    # some are missing, and a dict makes only the slots that are read
    slots = [None] * total if total <= len(rows) else defaultdict(type(None))
    parsed: dict[str, Value] = {}
    for names in rows:
        raw = names.pop()  # the row's value; its names are left
        i = rank(pos, offsets, names)
        if i < 0:
            raise MapError(f"{noun} ({','.join(names)}) repeats a name")
        if slots[i] is not None:
            raise MapError(f"duplicate row for {noun} ({','.join(names)})")
        v = parsed.get(raw)
        if v is None:
            v = parsed[raw] = parse(raw)
        slots[i] = v
    if len(rows) < total:
        missing = next(t for i, t in enumerate(combinations(ground, k)) if slots[i] is None)
        raise MapError(f"missing value for {noun} {sorted(missing)}")
    return cls(*kind, ground, slots, table)


def load_three_way_map(text: str, kind: str,
                       symbols: Optional[SymbolTable] = None) -> ThreeWayMap:
    """Load the TSV form: a 'x y z value' header then one row per 3-subset,
    in any order.  The ground-set order is the order of first appearance."""
    table = symbols if symbols is not None else SymbolTable()
    parse = partial(parse_multiset, table=table) if kind == KIND_MULTISET else table.intern
    return _load(ThreeWayMap, text, parse, table, kind)  # type: ignore[return-value]


def _save(cls: type, d: _TotalMap) -> str:
    """The saved form of a map of class cls; a map of the other arity is
    refused, so no text pairs its values with the wrong subsets."""
    if d._k != cls._k:
        raise MapError(f"the {cls._what} text form holds {cls._what} maps")
    texts = {v: v.text() if d.kind == KIND_MULTISET else v.name  # type: ignore[union-attr]
             for v in set(d.values)}
    return _saved_text([*"xyz"[:cls._k], "value"], d.ground, map(texts.__getitem__, d.values))


def save_three_way_map(d: ThreeWayMap) -> str:
    return _save(ThreeWayMap, d)


def load_two_way_map(text: str, symbols: Optional[SymbolTable] = None) -> TwoWayMap:
    """Load the TSV form: a 'x y value' header then one row per 2-subset,
    read as load_three_way_map reads triples."""
    table = symbols if symbols is not None else SymbolTable()
    return _load(TwoWayMap, text, table.intern, table)  # type: ignore[return-value]


def save_two_way_map(d: TwoWayMap) -> str:
    return _save(TwoWayMap, d)
