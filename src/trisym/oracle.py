"""Brute-force ground truth: exhaustive enumeration of small labelled trees
and direct representability search.

Shape enumeration works by leaf insertion, which yields every rooted
phylogenetic tree on an ordered leaf list exactly once: removing the last
leaf identifies a unique predecessor and insertion position.  Unrooted
shapes come from rooted shapes on one leaf fewer by attaching the last leaf
at the root and forgetting directions, which is a bijection.  Labellings
are assigned by backtracking with early pruning of same-label interior
edges when only discriminating trees are wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence, Union

from .maps import (KIND_MULTISET, KIND_SYMBOL, MapError, ThreeWayMap,
                   three_way_from_rooted, three_way_from_unrooted)
from .symbols import Symbol, SymbolTable
from .trees import LabelledTree, PhyloTree, ROOTED, TreeBuilder, TreeError, UNROOTED

MAX_LEAVES = 6
MAX_SYMBOLS = 3
OUTPUT_CAP = 5_000_000

# Known counts of rooted phylogenetic tree shapes on n labelled leaves,
# used as an independent cross-check of the enumeration.
ROOTED_SHAPE_COUNTS = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236, 6: 2752}


class EnumerationError(ValueError):
    """Spec outside the supported brute-force bounds."""


@dataclass(frozen=True)
class EnumerationSpec:
    """Bounds and flavor for one enumeration run."""

    leaves: tuple[str, ...]
    symbols: tuple[Symbol, ...]
    flavor: str
    discriminating_only: bool = True

    def __post_init__(self) -> None:
        if not (1 <= len(self.leaves) <= MAX_LEAVES):
            raise EnumerationError(f"leaf sets up to {MAX_LEAVES} are supported")
        if not (1 <= len(self.symbols) <= MAX_SYMBOLS):
            raise EnumerationError(f"symbol sets up to {MAX_SYMBOLS} are supported")
        if self.flavor not in (ROOTED, UNROOTED):
            raise EnumerationError(f"unknown flavor {self.flavor!r}")
        if self.flavor == UNROOTED and len(self.leaves) < 3:
            raise EnumerationError("unrooted enumeration needs at least 3 leaves")


def estimated_count(spec: EnumerationSpec) -> int:
    """A cheap upper bound on the number of labelled trees the spec yields."""
    n = len(spec.leaves)
    shapes = ROOTED_SHAPE_COUNTS[n - 1 if spec.flavor == UNROOTED else n]
    max_interior = max(1, n - 1)
    return shapes * len(spec.symbols) ** max_interior


# -- shapes -------------------------------------------------------------------

Shape = Union[str, tuple]  # a leaf name, or a tuple of child shapes


def _grow_below(shape: tuple, leaf: str) -> list[tuple]:
    """All insertions of a new leaf strictly inside the subtree: as a fresh
    child of this vertex, subdividing an edge to a child, or recursively."""
    out = [shape + (leaf,)]
    for i, child in enumerate(shape):
        out.append(shape[:i] + ((child, leaf),) + shape[i + 1:])
        if isinstance(child, tuple):
            out.extend(shape[:i] + (grown,) + shape[i + 1:]
                       for grown in _grow_below(child, leaf))
    return out


def rooted_shapes(leaves: Sequence[str]) -> Iterator[Shape]:
    """Every rooted phylogenetic tree shape on the leaf list, exactly once."""
    leaves = list(leaves)
    if len(leaves) == 1:
        yield leaves[0]
        return
    for smaller in rooted_shapes(leaves[:-1]):
        x = leaves[-1]
        yield (smaller, x)
        if isinstance(smaller, tuple):
            yield from _grow_below(smaller, x)


def _materialize(shape: tuple, extra_leaf: Optional[str],
                 order: Sequence[str]) -> PhyloTree:
    """The rooted tree of a shape or, given an extra leaf, the unrooted tree
    with that leaf attached at the shape's root."""
    builder = TreeBuilder()

    def add(s: Shape) -> int:
        if isinstance(s, str):
            return builder.add_vertex(s)
        v = builder.add_vertex()
        for child in s:
            builder.add_edge(v, add(child))
        return v

    top = add(shape)
    if extra_leaf is None:
        return builder.tree(ROOTED, root=top, leaf_order=order)
    builder.add_edge(top, builder.add_vertex(extra_leaf))
    return builder.tree(UNROOTED, leaf_order=order)


def enumerate_shapes(flavor: str, leaves: Sequence[str]) -> Iterator[PhyloTree]:
    """All phylogenetic tree shapes of the flavor on the leaf list."""
    leaves = list(leaves)
    if flavor == ROOTED:
        if len(leaves) < 2:
            raise EnumerationError("rooted shapes need at least 2 leaves")
        for s in rooted_shapes(leaves):
            yield _materialize(s, None, leaves)
        return
    if len(leaves) < 3:
        raise EnumerationError("unrooted shapes need at least 3 leaves")
    for s in rooted_shapes(leaves[:-1]):
        if isinstance(s, str):
            continue
        yield _materialize(s, leaves[-1], leaves)


# -- labellings ----------------------------------------------------------------

def _labellings(tree: PhyloTree, symbols: Sequence[Symbol],
                discriminating_only: bool) -> Iterator[dict[int, Symbol]]:
    interior = tree.interior_vertices()
    order = sorted(interior)
    placed: dict[int, Symbol] = {}

    def rec(i: int) -> Iterator[dict[int, Symbol]]:
        if i == len(order):
            yield dict(placed)
            return
        v = order[i]
        for sym in symbols:
            if discriminating_only and any(
                w in placed and placed[w] == sym
                for w in tree.adj[v] if not tree.is_leaf(w)
            ):
                continue
            placed[v] = sym
            yield from rec(i + 1)
            del placed[v]

    yield from rec(0)


def enumerate_labelled_trees(spec: EnumerationSpec) -> Iterator[LabelledTree]:
    """Stream every labelled tree matching the spec, each exactly once."""
    if estimated_count(spec) > OUTPUT_CAP:
        raise EnumerationError("estimated output exceeds the enumeration cap")
    table = SymbolTable()
    for sym in spec.symbols:
        table.intern(sym.name)
    syms = [table.intern(s.name) for s in spec.symbols]
    for shape in enumerate_shapes(spec.flavor, spec.leaves):
        for labels in _labellings(shape, syms, spec.discriminating_only):
            yield LabelledTree(shape, labels, table)


# -- representability search ------------------------------------------------------

def _normalized_table(d: ThreeWayMap) -> tuple:
    if d.kind == KIND_MULTISET:
        return tuple(tuple(s.name for s in v.entries) for v in d.values)  # type: ignore[union-attr]
    return tuple(v.name for v in d.values)  # type: ignore[union-attr]


_index_cache: dict[tuple, dict[tuple, LabelledTree]] = {}


def _representable_index(flavor: str, ground: tuple[str, ...],
                         symbol_names: tuple[str, ...]) -> dict[tuple, LabelledTree]:
    key = (flavor, ground, symbol_names)
    found = _index_cache.get(key)
    if found is not None:
        return found
    table = SymbolTable(symbol_names)
    spec = EnumerationSpec(ground, tuple(table), flavor, discriminating_only=True)
    index: dict[tuple, LabelledTree] = {}
    derive = three_way_from_rooted if flavor == ROOTED else three_way_from_unrooted
    for lt in enumerate_labelled_trees(spec):
        index.setdefault(_normalized_table(derive(lt)), lt)
    _index_cache[key] = index
    return index


def oracle_representable_three_way(d: ThreeWayMap,
                                   flavor: Optional[str] = None) -> Optional[LabelledTree]:
    """Search every discriminating labelled tree on the ground set whose
    induced map equals d; returns one (the unique one, when it exists) or
    None.  Defaults to rooted search for multiset maps and unrooted search
    for plain-symbol maps.

    Indexes all candidate maps per (flavor, ground set, image symbols) once
    and memoizes, so repeated queries are cheap.
    """
    if flavor is None:
        flavor = ROOTED if d.kind == KIND_MULTISET else UNROOTED
    if flavor == ROOTED and d.kind != KIND_MULTISET:
        raise MapError("rooted representability applies to multiset maps")
    if flavor == UNROOTED and d.kind != KIND_SYMBOL:
        raise MapError("unrooted representability applies to plain-symbol maps")
    if len(d.ground) > MAX_LEAVES:
        raise EnumerationError(f"ground sets up to {MAX_LEAVES} are supported")
    if flavor == UNROOTED and len(d.ground) < 4:
        raise MapError("unrooted tree-maps need at least 4 leaves")
    names = tuple(sorted(s.name for s in d.image_symbols()))
    if len(names) > MAX_SYMBOLS:
        # a representing tree would need every image symbol as a label, so
        # the search space is out of bounds rather than empty
        raise EnumerationError(f"image uses {len(names)} symbols; "
                               f"up to {MAX_SYMBOLS} are supported")
    index = _representable_index(flavor, d.ground, names)
    return index.get(_normalized_table(d))


# -- census ------------------------------------------------------------------------

def census(spec: EnumerationSpec) -> dict[str, int]:
    """Counts for the spec: tree shapes and labelled trees."""
    shapes = sum(1 for _ in enumerate_shapes(spec.flavor, spec.leaves))
    labelled = sum(1 for _ in enumerate_labelled_trees(spec))
    return {
        "leaves": len(spec.leaves),
        "symbols": len(spec.symbols),
        "shapes": shapes,
        "labelled": labelled,
    }
