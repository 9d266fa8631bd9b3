"""Total symbolic maps on 2-subsets and 3-subsets of a leaf set.

Values live in dense tables indexed by the lexicographic rank of the subset
over the ordered ground set, so lookups are O(1) and serialization order is
deterministic.  Maps are total by construction; partial data is a load-time
error, not a representable state.  Lookups by name go through a rank index
built on a map's first value() call; equality and the constructions from
trees work on positions instead.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .symbols import Symbol, SymbolTable, TripleMultiset, parse_multiset
from .trees import LabelledTree, ROOTED, UNROOTED, TreeError, median_of, table_triples

KIND_SYMBOL = "symbol"
KIND_MULTISET = "multiset"

Value = Union[Symbol, TripleMultiset]


class MapError(ValueError):
    """Malformed, partial, or inconsistent map data."""


def _rank_index(ground: Sequence[str], k: int) -> dict[frozenset, int]:
    return {frozenset(c): i for i, c in enumerate(combinations(ground, k))}


def _triple_ranks(ground: Sequence[str], other: Sequence[str]) -> list[int]:
    """For each 3-subset of ground, in combinations order, its rank among
    the 3-subsets of other, an ordering of the same names: one position map,
    then the closed-form lexicographic rank first[a] - second[b] + c of the
    positions a < b < c."""
    n = len(other)
    pos = {name: i for i, name in enumerate(other)}
    first = [comb(n, 3) - comb(n - a, 3) + comb(n - a - 1, 2) for a in range(n)]
    second = [comb(n - b, 2) + b + 1 for b in range(n)]
    ranks = []
    for t in combinations([pos[name] for name in ground], 3):
        a, b, c = sorted(t)
        ranks.append(first[a] - second[b] + c)
    return ranks


class TwoWayMap:
    """A total map from 2-subsets of the ground set into symbols."""

    __slots__ = ("ground", "values", "symbols", "_rank")

    def __init__(self, ground: Sequence[str], values: Sequence[Symbol],
                 symbols: SymbolTable):
        self.ground = tuple(ground)
        n = len(self.ground)
        if n < 3:
            raise MapError("two-way maps need a ground set of size at least 3")
        if len(set(self.ground)) != n:
            raise MapError("duplicate names in the ground set")
        self.values = tuple(values)
        if len(self.values) != n * (n - 1) // 2:
            raise MapError("two-way map table is not total")
        self.symbols = symbols

    @classmethod
    def from_pairs(cls, ground: Sequence[str], table: Mapping[frozenset, Symbol] | Mapping[tuple, Symbol],
                   symbols: SymbolTable) -> "TwoWayMap":
        norm = {frozenset(k): v for k, v in table.items()}
        values = []
        for pair in combinations(ground, 2):
            key = frozenset(pair)
            if key not in norm:
                raise MapError(f"missing value for pair {sorted(pair)}")
            values.append(norm[key])
        return cls(ground, values, symbols)

    def value(self, x: str, y: str) -> Symbol:
        try:
            rank = self._rank
        except AttributeError:  # the rank index is built on the first lookup
            rank = self._rank = _rank_index(self.ground, 2)
        try:
            return self.values[rank[frozenset((x, y))]]
        except KeyError:
            raise MapError(f"pair ({x},{y}) is not in the map") from None

    def pairs(self) -> Iterator[tuple[tuple[str, str], Symbol]]:
        for pair, v in zip(combinations(self.ground, 2), self.values):
            yield pair, v

    def image_symbols(self) -> set[Symbol]:
        return set(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoWayMap):
            return NotImplemented
        if set(self.ground) != set(other.ground):
            return False
        return all(v == other.value(*pair) for pair, v in self.pairs())

    def __hash__(self) -> int:
        return hash((frozenset(self.ground), frozenset(
            (frozenset(p), v) for p, v in self.pairs())))


class ThreeWayMap:
    """A total map from 3-subsets of the ground set into symbols (kind
    'symbol') or size-3 multisets of symbols (kind 'multiset')."""

    __slots__ = ("kind", "ground", "values", "symbols", "_rank")

    def __init__(self, kind: str, ground: Sequence[str], values: Sequence[Value],
                 symbols: SymbolTable):
        if kind not in (KIND_SYMBOL, KIND_MULTISET):
            raise MapError(f"unknown codomain kind {kind!r}")
        self.kind = kind
        self.ground = tuple(ground)
        n = len(self.ground)
        if n < 3:
            raise MapError("three-way maps need a ground set of size at least 3")
        if len(set(self.ground)) != n:
            raise MapError("duplicate names in the ground set")
        self.values = tuple(values)
        if len(self.values) != n * (n - 1) * (n - 2) // 6:
            raise MapError("three-way map table is not total")
        want = Symbol if kind == KIND_SYMBOL else TripleMultiset
        for v in self.values:
            if not isinstance(v, want):
                raise MapError(f"value {v!r} does not match codomain kind {kind!r}")
        self.symbols = symbols

    @classmethod
    def from_triples(cls, kind: str, ground: Sequence[str],
                     table: Mapping, symbols: SymbolTable) -> "ThreeWayMap":
        norm = {frozenset(k): v for k, v in table.items()}
        values = []
        for triple in combinations(ground, 3):
            key = frozenset(triple)
            if key not in norm:
                raise MapError(f"missing value for triple {sorted(triple)}")
            values.append(norm[key])
        return cls(kind, ground, values, symbols)

    def value(self, x: str, y: str, z: str) -> Value:
        try:
            rank = self._rank
        except AttributeError:  # the rank index is built on the first lookup
            rank = self._rank = _rank_index(self.ground, 3)
        try:
            return self.values[rank[frozenset((x, y, z))]]
        except KeyError:
            raise MapError(f"triple ({x},{y},{z}) is not in the map") from None

    def triples(self) -> Iterator[tuple[tuple[str, str, str], Value]]:
        for triple, v in zip(combinations(self.ground, 3), self.values):
            yield triple, v

    def image(self) -> set[Value]:
        return set(self.values)

    def image_symbols(self) -> set[Symbol]:
        if self.kind == KIND_SYMBOL:
            return set(self.values)  # type: ignore[arg-type]
        out: set[Symbol] = set()
        for v in self.values:
            out.update(v.entries)  # type: ignore[union-attr]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeWayMap):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.ground == other.ground:
            return self.values == other.values
        if set(self.ground) != set(other.ground):
            return False
        theirs = other.values
        return self.values == tuple(theirs[r] for r in _triple_ranks(self.ground, other.ground))

    def __hash__(self) -> int:
        return hash((self.kind, frozenset(self.ground), frozenset(
            (frozenset(t), v) for t, v in self.triples())))


# -- constructions from labelled trees ---------------------------------------

def _vertex_labels(lt: LabelledTree) -> list[Optional[Symbol]]:
    return [lt.labels.get(v) for v in range(lt.tree.n_vertices)]


def two_way_from_tree(lt: LabelledTree) -> TwoWayMap:
    """D(x,y) = label of the least common ancestor, for a rooted labelled tree."""
    if lt.flavor != ROOTED:
        raise MapError("two_way_from_tree needs a rooted labelled tree")
    label = _vertex_labels(lt)
    lca = lt.tree.leaf_lca_table()
    values = [label[lca[i][j]] for i, j in combinations(range(len(lca)), 2)]
    return TwoWayMap(lt.leaf_order, values, lt.symbols)


def three_way_from_unrooted(lt: LabelledTree) -> ThreeWayMap:
    """delta(x,y,z) = label of the median vertex, for an unrooted labelled
    tree: the deepest of the three pairwise lcas in one leaf-lca table."""
    if lt.flavor != UNROOTED:
        raise MapError("three_way_from_unrooted needs an unrooted labelled tree")
    if len(lt.leaf_order) < 4:
        raise MapError("unrooted tree-maps need at least 4 leaves")
    label = _vertex_labels(lt)
    values = [label[median_of(xy, xz, yz)]
              for xy, xz, yz in table_triples(lt.tree.leaf_lca_table())]
    return ThreeWayMap(KIND_SYMBOL, lt.leaf_order, values, lt.symbols)


def three_way_from_rooted(lt: LabelledTree) -> ThreeWayMap:
    """delta(x,y,z) = multiset of the three pairwise lca labels, for a rooted
    labelled tree."""
    if lt.flavor != ROOTED:
        raise MapError("three_way_from_rooted needs a rooted labelled tree")
    label = _vertex_labels(lt)
    values = [TripleMultiset.of(label[xy], label[xz], label[yz])
              for xy, xz, yz in table_triples(lt.tree.leaf_lca_table())]
    return ThreeWayMap(KIND_MULTISET, lt.leaf_order, values, lt.symbols)


def three_way_from_two_way(d: TwoWayMap) -> ThreeWayMap:
    """Assemble delta(x,y,z) = {D(x,y), D(x,z), D(y,z)} from a two-way map."""
    values = [
        TripleMultiset.of(d.value(x, y), d.value(x, z), d.value(y, z))
        for x, y, z in combinations(d.ground, 3)
    ]
    return ThreeWayMap(KIND_MULTISET, d.ground, values, d.symbols)


def restrict(d: ThreeWayMap, leaves: Iterable[str]) -> ThreeWayMap:
    """Restrict a three-way map to the 3-subsets of a leaf subset."""
    sub = [n for n in d.ground if n in set(leaves)]
    missing = set(leaves) - set(d.ground)
    if missing:
        raise MapError(f"names {sorted(missing)} are not in the ground set")
    if len(sub) < 3:
        raise MapError("restriction needs at least 3 leaves")
    values = [d.value(x, y, z) for x, y, z in combinations(sub, 3)]
    return ThreeWayMap(d.kind, sub, values, d.symbols)


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

def _map_rows(text: str, width: int) -> Iterator[list[str]]:
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != width:
            raise MapError(f"line {lineno}: expected {width} columns, got {len(parts)}")
        yield parts


def load_three_way_map(text: str, kind: str,
                       symbols: Optional[SymbolTable] = None) -> ThreeWayMap:
    """Load the TSV form: a 'x y z value' header then one row per 3-subset.

    The ground-set order is the order of first appearance; completeness and
    uniqueness of rows are validated.
    """
    table = symbols if symbols is not None else SymbolTable()
    rows = list(_map_rows(text, 4))
    if not rows or rows[0] != ["x", "y", "z", "value"]:
        raise MapError("three-way map text must start with the header 'x y z value'")
    ground = list(dict.fromkeys(name for row in rows[1:] for name in row[:3]))
    seen: dict[frozenset, Value] = {}
    for x, y, z, raw in rows[1:]:
        key = frozenset((x, y, z))
        if len(key) != 3:
            raise MapError(f"triple ({x},{y},{z}) repeats a name")
        if key in seen:
            raise MapError(f"duplicate row for triple ({x},{y},{z})")
        if kind == KIND_MULTISET:
            seen[key] = parse_multiset(raw, table)
        else:
            seen[key] = table.intern(raw)
    return ThreeWayMap.from_triples(kind, ground, seen, table)


def save_three_way_map(d: ThreeWayMap) -> str:
    lines = ["x y z value"]
    for (x, y, z), v in d.triples():
        val = v.text() if d.kind == KIND_MULTISET else v.name  # type: ignore[union-attr]
        lines.append(f"{x} {y} {z} {val}")
    return "\n".join(lines) + "\n"


def load_two_way_map(text: str, symbols: Optional[SymbolTable] = None) -> TwoWayMap:
    """Load the TSV form: a 'x y value' header then one row per 2-subset."""
    table = symbols if symbols is not None else SymbolTable()
    rows = list(_map_rows(text, 3))
    if not rows or rows[0] != ["x", "y", "value"]:
        raise MapError("two-way map text must start with the header 'x y value'")
    ground = list(dict.fromkeys(name for row in rows[1:] for name in row[:2]))
    seen: dict[frozenset, Symbol] = {}
    for x, y, raw in rows[1:]:
        key = frozenset((x, y))
        if len(key) != 2:
            raise MapError(f"pair ({x},{y}) repeats a name")
        if key in seen:
            raise MapError(f"duplicate row for pair ({x},{y})")
        seen[key] = table.intern(raw)
    return TwoWayMap.from_pairs(ground, seen, table)


def save_two_way_map(d: TwoWayMap) -> str:
    lines = ["x y value"]
    for (x, y), v in d.pairs():
        lines.append(f"{x} {y} {v.name}")
    return "\n".join(lines) + "\n"
