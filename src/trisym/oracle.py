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
(rooted).  So the search walks the leaf insertions in enumeration order,
reads each prefix's labels off the map, and extends only the prefixes whose
labels agree; it returns the first shape whose labelling matches and is
discriminating: the first match among all discriminating labelled trees in
enumerate_labelled_trees order.  Nothing is kept between queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence, Union

# The search builds no maps; three_way_from_rooted and
# three_way_from_unrooted stay importable from this module, where callers
# look them up as attributes.
from .maps import (KIND_MULTISET, KIND_SYMBOL, MapError, ThreeWayMap,
                   three_way_from_rooted, three_way_from_unrooted)
from .symbols import Symbol, SymbolTable
from .trees import LabelledTree, PhyloTree, ROOTED, TreeBuilder, UNROOTED, walk

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

def _slot_labels(d: ThreeWayMap) -> Optional[list[tuple]]:
    """Per triple, the labels that the deepest and the shallower of its
    pairwise lcas must carry: the value and None (symbol maps, whose median
    is the deepest lca), or the minority and the majority entry (multiset
    maps); None when some value has three distinct entries, which no rooted
    tree induces."""
    if d.kind == KIND_SYMBOL:
        return [(v, None) for v in d.values]
    labels = []
    for v in d.values:
        if v.majority is None:  # type: ignore[union-attr]
            return None
        labels.append((v.minority, v.majority))  # type: ignore[union-attr]
    return labels


def _first_match(ground: Sequence[str], rooted: bool,
                 want: Sequence[tuple]) -> Optional[tuple[tuple, list[Symbol]]]:
    """The first shape in enumerate_shapes order whose slots on each vertex
    carry one label and whose labelling is discriminating, with its
    interior labels in preorder; or None.  The shape is rooted, on the
    leaves placed by insertion: all but an unrooted ground's last.

    The walk takes rooted_shapes' leaf insertions depth first.  Leaf i is
    vertex i, the vertex made with leaf x is n + x, and vertex n stands
    above the root, where an unrooted ground's last leaf hangs.  Placing a
    leaf labels the slots of the triples it completes, and a prefix whose
    slots disagree is not extended: a tree that induces the map induces it
    on every leaf subset, on the same vertices.
    """
    n = len(ground)
    top, m = n, (n if rooted else n - 1)
    rank = {t: r for r, t in enumerate(combinations(range(n), 3))}
    # per leaf x: the other two leaves of each triple it completes, and the
    # labels of their deepest and shallower lca
    completes = [[(a, b, *want[rank[a, b, x]]) for a, b in combinations(range(x), 2)]
                 + [(a, n - 1, *want[rank[a, x, n - 1]]) for a in range(x) if not rooted]
                 for x in range(m)]
    meet = [[top] * n for _ in range(n)]  # meet[x][a]: the lca of leaves a < x
    parent = [-1] * (2 * n)
    parent[0] = parent[n - 1] = top  # leaf n - 1 moves when placed, if rooted
    children: list[list[int]] = [[] for _ in range(2 * n)]
    children[top] = [0]

    def place(x: int, parent: list[int], label: list) -> Optional[list]:
        """The labelling with leaf x's slots added, or None on a conflict."""
        height, v = {}, parent[x]
        while v >= 0:
            height[v], v = len(height), parent[v]
        row = meet[x]
        for a in range(x):
            v = a
            while v not in height:
                v = parent[v]
            row[a] = v
        label = label[:]
        for a, b, deep_label, shallow_label in completes[x]:
            u, w = row[a], row[b]
            if u == w:
                deep, shallow = meet[b][a], u
            else:
                deep, shallow = (u, w) if height[u] < height[w] else (w, u)
            for v, want_v in ((deep, deep_label), (shallow, shallow_label)):
                if want_v is None:  # an unrooted triple labels only its median
                    break
                if label[v] is None:
                    label[v] = want_v
                elif label[v] is not want_v:
                    return None
        return label

    # per leaf being placed: the insertions left to try (c subdivides the
    # edge above vertex c, ~c hangs the leaf below it), and the tree before
    frames = [(iter([0]), parent, children, [None] * (2 * n))]
    while frames:
        x = len(frames)
        ops, parent, children, label = frames[-1]
        op = next(ops, None)
        if op is None:
            frames.pop()
            continue
        parent, children = parent[:], children[:]
        if op >= 0:
            w, p = n + x, parent[op]
            children[p] = [w if c == op else c for c in children[p]]
            children[w] = [op, x]
            parent[w], parent[op], parent[x] = p, w, w
        else:
            children[~op] = children[~op] + [x]
            parent[x] = ~op
        label = place(x, parent, label)
        if label is None:
            continue
        order = walk(children, children[top][0])[0]  # _materialize's numbering
        if x < m - 1:
            frames.append((iter([i for c in order for i in ((c, ~c) if c > n else (c,))]),
                           parent, children, label))
        elif not any(v > n and label[v] is label[parent[v]] for v in order):
            built: dict[int, Shape] = {}
            for v in reversed(order):
                built[v] = ground[v] if v < n else tuple(built[c] for c in children[v])
            return built[order[0]], [label[v] for v in order if v > n]
    return None


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
    vertex carry one label.  The search walks the shapes in order by leaf
    insertion, skips every shape below a prefix whose slots already
    disagree, and builds only the first shape that passes with a
    discriminating labelling.  Nothing is kept between queries, and a map
    that no tree induces is refused as soon as every prefix disagrees.
    """
    if d.kind not in (KIND_SYMBOL, KIND_MULTISET):
        raise MapError("the oracle searches for three-way maps")
    rooted = d.kind == KIND_MULTISET
    if len(d.ground) > MAX_LEAVES:
        raise EnumerationError(f"ground sets up to {MAX_LEAVES} are supported")
    if not rooted and len(d.ground) < 4:
        raise MapError("unrooted tree-maps need at least 4 leaves")
    want = _slot_labels(d)
    found = None if want is None else _first_match(d.ground, rooted, want)
    if found is None:
        return None
    shape, labels = found
    tree = _materialize(shape, None if rooted else d.ground[-1], d.ground)
    return LabelledTree(tree, dict(zip(tree.interior_vertices(), labels)), d.symbols)


# -- census ------------------------------------------------------------------------

def census(spec: EnumerationSpec) -> dict[str, int]:
    """Counts for the spec: tree shapes and labelled trees.  The interior
    vertices of a shape form a tree, so a shape with m of them has k^m
    labellings over k symbols, k(k-1)^(m-1) of them discriminating; the
    labelled trees are counted per shape, not enumerated."""
    k = len(spec.symbols)
    shapes = labelled = 0
    for shape in enumerate_shapes(spec.flavor, spec.leaves):
        m = len(shape.interior_vertices())
        shapes += 1
        labelled += k * (k - 1) ** (m - 1) if spec.discriminating_only else k ** m
    return {
        "leaves": len(spec.leaves),
        "symbols": len(spec.symbols),
        "shapes": shapes,
        "labelled": labelled,
    }
