"""Brute-force ground truth: exhaustive enumeration of small labelled trees
and direct representability search.

Shape enumeration works by leaf insertion, which yields every rooted
phylogenetic tree on an ordered leaf list exactly once: removing the last
leaf identifies a unique predecessor and insertion position.  Unrooted
shapes come from rooted shapes on one leaf fewer by attaching the last leaf
at the root and forgetting directions, which is a bijection.  Labellings
are assigned by backtracking with early pruning of same-label interior
edges when only discriminating trees are wanted.

The representability search labels no shape by backtracking.  A map fixes
the labels of every tree that could induce it, because each interior vertex
is the median of a leaf triple (unrooted) or the lca of a leaf pair
(rooted).  So the search scans the shapes in enumeration order, reads each
label off the map, checks every triple at once, and returns the first shape
whose labelling matches and is discriminating: the first match among all
discriminating labelled trees in enumerate_labelled_trees order.  Its cost
is per shape, whatever the number of symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

# The search builds no maps; three_way_from_rooted and
# three_way_from_unrooted stay importable from this module, where callers
# look them up as attributes.
from .maps import (KIND_MULTISET, KIND_SYMBOL, MapError, ThreeWayMap,
                   three_way_from_rooted, three_way_from_unrooted)
from .symbols import Symbol, SymbolTable
from .trees import (LabelledTree, PhyloTree, ROOTED, TreeBuilder, UNROOTED, median_of,
                    table_triples)

MAX_LEAVES = 6
MAX_SYMBOLS = 3

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
            raise EnumerationError(f"leaf sets of 1 to {MAX_LEAVES} leaves are supported")
        if not (1 <= len(self.symbols) <= MAX_SYMBOLS):
            raise EnumerationError(f"symbol sets of 1 to {MAX_SYMBOLS} symbols are supported")
        if self.flavor not in (ROOTED, UNROOTED):
            raise EnumerationError(f"unknown flavor {self.flavor!r}")
        if self.flavor == ROOTED and len(self.leaves) < 2:
            raise EnumerationError("rooted enumeration needs at least 2 leaves")
        if self.flavor == UNROOTED and len(self.leaves) < 3:
            raise EnumerationError("unrooted enumeration needs at least 3 leaves")


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
    table = SymbolTable(s.name for s in spec.symbols)
    for shape in enumerate_shapes(spec.flavor, spec.leaves):
        for labels in _labellings(shape, spec.symbols, spec.discriminating_only):
            yield LabelledTree(shape, labels, table)


# -- representability search ------------------------------------------------------

@lru_cache(maxsize=None)
def _scan_shapes(flavor: str, n: int) -> tuple[tuple, ...]:
    """Every shape on n leaves in enumerate_shapes order, on the leaves "0"
    to "n-1", where leaf "i" stands for the i-th name of a ground set, with
    what the search reads off it.

    A map's slots are the entries of its values, in combinations order of
    the leaf triples, that each label one vertex: per leaf triple, its
    median (unrooted), or the shallower and then the deepest of its
    pairwise lcas (rooted), which the value's majority and minority entries
    label.  Each shape comes as (tree, first, repeats, interior edges):
    first holds each interior vertex with the first slot on it, and repeats
    has, for every later slot j on the same vertex, the bit j(j-1)/2 + i of
    the slot pair i < j, i that first slot.  None of it depends on the
    names or the symbols.
    """
    out = []
    for tree in enumerate_shapes(flavor, [str(i) for i in range(n)]):
        slots: list[int] = []
        for xy, xz, yz in table_triples(tree.leaf_lca_table()):
            deep = median_of(xy, xz, yz)
            if flavor == ROOTED:
                slots.append(xz if xy == deep else xy)
            slots.append(deep)
        first: dict[int, int] = {}
        repeats = 0
        for j, v in enumerate(slots):
            i = first.setdefault(v, j)
            if i != j:
                repeats |= 1 << (j * (j - 1) // 2 + i)
        edges = tuple((u, w) for u, w in tree.edges()
                      if not tree.is_leaf(u) and not tree.is_leaf(w))
        out.append((tree, tuple(first.items()), repeats, edges))
    return tuple(out)


def _slot_labels(d: ThreeWayMap) -> Optional[list[Symbol]]:
    """The label each slot must carry: the value (symbol maps), or the
    majority then the minority entry (multiset maps); None when some value
    has three distinct entries, which no rooted tree induces."""
    if d.kind == KIND_SYMBOL:
        return list(d.values)  # type: ignore[arg-type]
    labels = []
    for v in d.values:
        major = v.majority  # type: ignore[union-attr]
        if major is None:
            return None
        labels += (major, v.minority)  # type: ignore[union-attr]
    return labels


def _equal_pairs(labels: Sequence[Symbol]) -> int:
    """The mask of the slot pairs i < j with labels[i] == labels[j], with
    the bit of each pair at j(j-1)/2 + i."""
    mask = 0
    before: dict[Symbol, int] = {}  # label -> the bits of the slots so far with it
    for j, label in enumerate(labels):
        same = before.get(label, 0)
        mask |= same << (j * (j - 1) // 2)
        before[label] = same | 1 << j
    return mask


def oracle_representable_three_way(d: ThreeWayMap) -> Optional[LabelledTree]:
    """The first discriminating labelled tree on the ground set, in
    enumerate_labelled_trees order, whose induced map equals d, or None.
    Searches rooted trees for multiset maps and unrooted trees for
    plain-symbol maps.

    A representing tree leaves no labels to choose: each interior vertex is
    the median of a leaf triple (unrooted) and carries that triple's value,
    or the lca of a leaf pair (rooted), and the shallower of a triple's
    pairwise lcas carries the value's majority entry and the deepest its
    minority entry.  So each shape admits at most one matching labelling:
    the one read off d, which matches exactly when every two slots on one
    vertex carry one label.  The search scans the shapes in order, tests
    that for all of a shape's triples at once, as one mask inclusion, reads
    the labels off the first shape that passes, and skips it when the
    labelling is not discriminating.  The shapes and their masks are built
    once per flavor and leaf count and kept; they depend on neither the
    leaf names nor the symbols, so the cost of a query is per shape, whatever
    the number of symbols.
    """
    if d.kind not in (KIND_SYMBOL, KIND_MULTISET):
        raise MapError("the oracle searches for three-way maps")
    flavor = ROOTED if d.kind == KIND_MULTISET else UNROOTED
    if len(d.ground) > MAX_LEAVES:
        raise EnumerationError(f"ground sets up to {MAX_LEAVES} are supported")
    if flavor == UNROOTED and len(d.ground) < 4:
        raise MapError("unrooted tree-maps need at least 4 leaves")
    want = _slot_labels(d)
    if want is None:
        return None
    unequal = ~_equal_pairs(want)
    for shape, first, repeats, interior_edges in _scan_shapes(flavor, len(d.ground)):
        if repeats & unequal:
            continue
        label = {v: want[j] for v, j in first}
        if any(label[u] == label[w] for u, w in interior_edges):
            continue
        tree = PhyloTree(flavor, shape.adj,
                         {v: d.ground[int(i)] for v, i in shape.leaf_name.items()},
                         root=shape.root, leaf_order=d.ground)
        return LabelledTree(tree, label, d.symbols)
    return None


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
