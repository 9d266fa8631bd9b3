"""Rooted and unrooted phylogenetic trees with interior-vertex labellings.

Vertices are dense integer indices.  Leaves carry distinct names, interior
vertices carry none; in a LabelledTree every interior vertex additionally
carries a Symbol.  Trees are immutable after construction and all queries
are pure, so instances are safe to share.

Whole-tree constructions (lca maps, median maps, displayed triplets) read
one all-pairs leaf-lca table, PhyloTree.leaf_lca_table, built in O(n^2)
from a single walk.  An unrooted tree is rooted at an arbitrary vertex for
it: the median of a triple is the deepest of its three pairwise lcas under
any rooting.  PhyloTree.lca and PhyloTree.median answer single queries.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .symbols import Symbol, SymbolTable

ROOTED = "rooted"
UNROOTED = "unrooted"

_LEAF_RE = re.compile(r"[A-Za-z0-9_.\-]+")


class TreeError(ValueError):
    """Malformed tree structure or text."""


@dataclass(frozen=True)
class Triplet:
    """The rooted binary shape xy|z on three leaves: cherry {x,y}, outlier z."""

    cherry: frozenset[str]
    outlier: str

    def __post_init__(self) -> None:
        if len(self.cherry) != 2 or self.outlier in self.cherry:
            raise TreeError("a triplet needs three distinct leaf names")

    @classmethod
    def of(cls, x: str, y: str, z: str) -> "Triplet":
        return cls(frozenset((x, y)), z)

    @property
    def leaves(self) -> frozenset[str]:
        return self.cherry | {self.outlier}

    def __repr__(self) -> str:
        a, b = sorted(self.cherry)
        return f"{a}{b}|{self.outlier}"

    def text(self) -> str:
        a, b = sorted(self.cherry)
        return f"{a} {b} | {self.outlier}"


@dataclass(frozen=True)
class TripletSet:
    """A deduplicated set of triplets over a ground set of leaf names."""

    ground: tuple[str, ...]
    triplets: frozenset[Triplet]

    def __post_init__(self) -> None:
        names = set(self.ground)
        for t in self.triplets:
            if t.outlier not in names or not t.cherry <= names:
                raise TreeError(f"triplet {t!r} uses names outside the ground set")

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    def __contains__(self, t: Triplet) -> bool:
        return t in self.triplets

    def text(self) -> str:
        return "\n".join(t.text() for t in sorted(self.triplets, key=repr)) + "\n"


def parse_triplets(text: str, ground: Sequence[str]) -> TripletSet:
    """Parse one 'x y | z' triplet per line."""
    trips = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, _, right = line.partition("|")
        xs = left.split()
        z = right.split()
        if len(xs) != 2 or len(z) != 1:
            raise TreeError(f"bad triplet line {line!r}")
        trips.add(Triplet.of(xs[0], xs[1], z[0]))
    return TripletSet(tuple(ground), frozenset(trips))


class PhyloTree:
    """A phylogenetic tree on a leaf set X.

    Rooted trees have a designated root with indegree 0 and at least two
    children, and no other vertex with exactly one child.  Unrooted trees
    have no interior vertex of degree two.
    """

    __slots__ = ("flavor", "adj", "root", "leaf_name", "leaf_vertex",
                 "leaf_order", "parent", "children", "depth")

    def __init__(
        self,
        flavor: str,
        adj: Sequence[Sequence[int]],
        leaf_name: dict[int, str],
        root: Optional[int] = None,
        leaf_order: Optional[Sequence[str]] = None,
    ):
        if flavor not in (ROOTED, UNROOTED):
            raise TreeError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.adj = tuple(tuple(nbrs) for nbrs in adj)
        self.leaf_name = dict(leaf_name)
        n = len(self.adj)
        if n == 0:
            raise TreeError("empty tree")
        if len(set(self.leaf_name.values())) != len(self.leaf_name):
            raise TreeError("duplicate leaf names")
        self.leaf_vertex = {name: v for v, name in self.leaf_name.items()}
        if leaf_order is None:
            leaf_order = [self.leaf_name[v] for v in sorted(self.leaf_name)]
        if set(leaf_order) != set(self.leaf_name.values()):
            raise TreeError("leaf_order does not match the leaf set")
        self.leaf_order = tuple(leaf_order)

        edge_count = sum(len(nbrs) for nbrs in self.adj) // 2
        if edge_count != n - 1:
            raise TreeError("vertex/edge count does not form a tree")

        if flavor == ROOTED:
            if root is None or not (0 <= root < n):
                raise TreeError("rooted tree needs a valid root index")
            self.root = root
            parent: list[Optional[int]] = [None] * n
            children: list[tuple[int, ...]] = [()] * n
            depth = [0] * n
            seen = {root}
            queue = deque([root])
            while queue:
                v = queue.popleft()
                kids = []
                for w in self.adj[v]:
                    if w not in seen:
                        seen.add(w)
                        parent[w] = v
                        depth[w] = depth[v] + 1
                        kids.append(w)
                        queue.append(w)
                children[v] = tuple(kids)
            if len(seen) != n:
                raise TreeError("tree is not connected")
            self.parent = tuple(parent)
            self.children = tuple(children)
            self.depth = tuple(depth)
            for v in range(n):
                is_leaf = v in self.leaf_name
                if is_leaf and children[v]:
                    raise TreeError(f"leaf {self.leaf_name[v]!r} has children")
                if not is_leaf:
                    if v == root:
                        if n > 1 and len(children[v]) < 2:
                            raise TreeError("root must have at least two children")
                    elif len(children[v]) < 2:
                        raise TreeError("interior vertex with a single child")
                if not is_leaf and not children[v] and n > 1:
                    raise TreeError("unnamed vertex of degree one")
        else:
            if root is not None:
                raise TreeError("unrooted tree cannot carry a root")
            self.root = None
            self.parent = ()
            self.children = ()
            self.depth = ()
            seen = {0}
            queue = deque([0])
            while queue:
                v = queue.popleft()
                for w in self.adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) != n:
                raise TreeError("tree is not connected")
            for v in range(n):
                deg = len(self.adj[v])
                if v in self.leaf_name:
                    if deg > 1:
                        raise TreeError(f"leaf {self.leaf_name[v]!r} has degree {deg}")
                elif deg < 3 and n > 1:
                    raise TreeError("interior vertex of degree below three")

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_name)

    def is_leaf(self, v: int) -> bool:
        return v in self.leaf_name

    def interior_vertices(self) -> list[int]:
        return [v for v in range(self.n_vertices) if v not in self.leaf_name]

    def vertex_of(self, name: str) -> int:
        try:
            return self.leaf_vertex[name]
        except KeyError:
            raise TreeError(f"unknown leaf name {name!r}") from None

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n_vertices):
            for w in self.adj[u]:
                if u < w:
                    yield (u, w)

    # -- ancestor structure (rooted) --------------------------------------

    def lca(self, x: str, y: str) -> int:
        """Least common ancestor vertex of two distinct leaves (rooted trees)."""
        if self.flavor != ROOTED:
            raise TreeError("lca is defined on rooted trees")
        u, v = self.vertex_of(x), self.vertex_of(y)
        if u == v:
            raise TreeError("lca needs two distinct leaves")
        return _climb(self.parent, self.depth, u, v)

    def leaves_below(self, v: int) -> frozenset[str]:
        if self.flavor != ROOTED:
            raise TreeError("leaves_below is defined on rooted trees")
        out = []
        stack = [v]
        while stack:
            w = stack.pop()
            if w in self.leaf_name:
                out.append(self.leaf_name[w])
            stack.extend(self.children[w])
        return frozenset(out)

    # -- all-pairs lcas and medians -----------------------------------------

    def _walk(self) -> tuple[list[int], list[int], list[int]]:
        """One walk from the root, or from vertex 0 of an unrooted tree:
        the vertices in breadth-first order, their parents (-1 at the
        start) and their depths."""
        start = self.root if self.flavor == ROOTED else 0
        parent = [-1] * len(self.adj)
        depth = [0] * len(self.adj)
        order = [start]
        for v in order:
            for w in self.adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    order.append(w)
        return order, parent, depth

    def leaf_lca_table(self) -> list[list[int]]:
        """lca[i][j] for leaves i, j indexed by leaf_order: their least
        common ancestor with the tree rooted at its root, or at vertex 0 when
        unrooted; lca[i][i] is the leaf itself.

        Every pair is filled once, at the vertex where the two leaves'
        subtrees meet, so the table costs O(n^2) after one walk.  Under any
        rooting, two of the three pairwise lcas of a leaf triple coincide and
        the third, the deepest, is the triple's median.
        """
        order, parent, _ = self._walk()
        index = {self.leaf_vertex[name]: i for i, name in enumerate(self.leaf_order)}
        n = len(index)
        lca = [[0] * n for _ in range(n)]
        below: list[list[int]] = [[] for _ in self.adj]
        for v in reversed(order):
            acc = below[v]
            if v in index:
                i = index[v]
                lca[i][i] = v
                acc.append(i)
            for w in self.adj[v]:
                if w == parent[v]:
                    continue
                kids = below[w]
                for i in acc:
                    row = lca[i]
                    for j in kids:
                        row[j] = v
                        lca[j][i] = v
                acc.extend(kids)
                below[w] = []
        return lca

    def median(self, x: str, y: str, z: str) -> int:
        """The unique vertex lying on all three pairwise paths (unrooted
        trees): the deepest of the three pairwise lcas under any rooting."""
        if self.flavor != UNROOTED:
            raise TreeError("median is defined on unrooted trees")
        if len({x, y, z}) != 3:
            raise TreeError("median needs three distinct leaves")
        u, v, w = self.vertex_of(x), self.vertex_of(y), self.vertex_of(z)
        _, parent, depth = self._walk()
        return median_of(_climb(parent, depth, u, v), _climb(parent, depth, u, w),
                         _climb(parent, depth, v, w))


def _climb(parent: Sequence, depth: Sequence[int], u: int, v: int) -> int:
    """The lca of u and v by climbing parent pointers from the deeper one."""
    while depth[u] > depth[v]:
        u = parent[u]
    while depth[v] > depth[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return u


def median_of(xy: int, xz: int, yz: int) -> int:
    """The median of a leaf triple from its three pairwise lcas under one
    rooting: two of them coincide and the third is the deepest."""
    if xy == xz:
        return yz
    return xz if xy == yz else xy


def table_triples(table: Sequence[Sequence]) -> Iterator[tuple]:
    """(t[i][j], t[i][k], t[j][k]) for every index triple i < j < k, in
    combinations order, reading only the upper triangle of a square pair
    table.  On a leaf_lca_table these are the three pairwise lcas of each
    leaf triple."""
    n = len(table)
    for i in range(n):
        row_i = table[i]
        for j in range(i + 1, n):
            xy, row_j = row_i[j], table[j]
            for k in range(j + 1, n):
                yield xy, row_i[k], row_j[k]


@dataclass(frozen=True, eq=False)
class LabelledTree:
    """A phylogenetic tree together with a total interior-vertex labelling."""

    tree: PhyloTree
    labels: dict[int, Symbol]
    symbols: SymbolTable

    def __post_init__(self) -> None:
        interior = set(self.tree.interior_vertices())
        if set(self.labels) != interior:
            raise TreeError("labelling must be total on interior vertices")

    @property
    def flavor(self) -> str:
        return self.tree.flavor

    @property
    def leaf_order(self) -> tuple[str, ...]:
        return self.tree.leaf_order

    def label_at(self, v: int) -> Symbol:
        return self.labels[v]

    def lca_label(self, x: str, y: str) -> Symbol:
        return self.labels[self.tree.lca(x, y)]

    def median_label(self, x: str, y: str, z: str) -> Symbol:
        return self.labels[self.tree.median(x, y, z)]

    def __repr__(self) -> str:
        return f"LabelledTree({self.flavor}: {to_newick(self)})"


class TreeBuilder:
    """Accumulates vertices and edges, then freezes them into a PhyloTree."""

    def __init__(self) -> None:
        self.adj: list[list[int]] = []
        self.names: dict[int, str] = {}
        self.leaf_seq: list[str] = []

    def add_vertex(self, name: Optional[str] = None) -> int:
        v = len(self.adj)
        self.adj.append([])
        if name is not None:
            self.names[v] = name
            self.leaf_seq.append(name)
        return v

    def add_edge(self, u: int, v: int) -> None:
        self.adj[u].append(v)
        self.adj[v].append(u)

    def tree(self, flavor: str, root: Optional[int] = None,
             leaf_order: Optional[Sequence[str]] = None) -> PhyloTree:
        order = leaf_order if leaf_order is not None else self.leaf_seq
        return PhyloTree(flavor, self.adj, self.names, root=root, leaf_order=order)


# -- text form -------------------------------------------------------------

def _tokenize(newick: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(newick):
        ch = newick[i]
        if ch in "(),;":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        else:
            m = _LEAF_RE.match(newick, i)
            if not m:
                raise TreeError(f"unexpected character {ch!r} in newick text")
            tokens.append(m.group(0))
            i = m.end()
    return tokens


def parse_newick(flavor: str, newick: str,
                 symbols: Optional[SymbolTable] = None) -> LabelledTree:
    """Parse a labelled newick string, e.g. '((1,2)B,(3,4)B,5)A;'.

    Interior labels are mandatory.  For the unrooted flavor the text is read
    as the tree laid out from an interior vertex, which must have at least
    three children.
    """
    table = symbols if symbols is not None else SymbolTable()
    tokens = _tokenize(newick)
    if not tokens or tokens[-1] != ";":
        raise TreeError("newick text must end with ';'")
    builder = TreeBuilder()
    labels: dict[int, Symbol] = {}

    def sub(i: int) -> tuple[int, int]:
        if tokens[i] == "(":
            i += 1
            kids = []
            while True:
                v, i = sub(i)
                kids.append(v)
                if tokens[i] == ",":
                    i += 1
                    continue
                if tokens[i] == ")":
                    i += 1
                    break
                raise TreeError("expected ',' or ')' in newick text")
            if i >= len(tokens) or tokens[i] in "(),;":
                raise TreeError("interior vertex is missing its label")
            u = builder.add_vertex()
            labels[u] = table.intern(tokens[i])
            for k in kids:
                builder.add_edge(u, k)
            return u, i + 1
        name = tokens[i]
        if name in "(),;":
            raise TreeError("expected a leaf name")
        return builder.add_vertex(name), i + 1

    top, i = sub(0)
    if tokens[i] != ";":
        raise TreeError("trailing tokens after the tree")
    if top in builder.names:
        raise TreeError("a tree needs at least two leaves")
    if flavor == ROOTED:
        tree = builder.tree(ROOTED, root=top)
    else:
        tree = builder.tree(UNROOTED)
    return LabelledTree(tree, labels, table)


def to_newick(lt: LabelledTree) -> str:
    """Serialize a labelled tree to newick text (without the flavor header)."""
    tree = lt.tree
    if tree.flavor == ROOTED:
        start, exclude = tree.root, None
    else:
        # lay the tree out from the interior vertex next to the first leaf
        first = tree.vertex_of(tree.leaf_order[0])
        start, exclude = tree.adj[first][0], None

    def walk(v: int, parent: Optional[int]) -> str:
        if tree.is_leaf(v):
            return tree.leaf_name[v]
        parts = [walk(w, v) for w in tree.adj[v] if w != parent]
        return "(" + ",".join(parts) + ")" + lt.labels[v].name

    return walk(start, exclude) + ";"


def parse_tree(text: str, symbols: Optional[SymbolTable] = None) -> LabelledTree:
    """Parse the file form: a 'rooted'/'unrooted' header line, then newick."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) < 2 or lines[0] not in (ROOTED, UNROOTED):
        raise TreeError("tree text needs a 'rooted' or 'unrooted' header line")
    return parse_newick(lines[0], " ".join(lines[1:]), symbols)


def tree_to_text(lt: LabelledTree) -> str:
    return f"{lt.flavor}\n{to_newick(lt)}\n"


# -- structural operations ---------------------------------------------------

def is_discriminating(lt: LabelledTree) -> bool:
    """True iff every edge joining two interior vertices has distinct labels."""
    tree = lt.tree
    for u, w in tree.edges():
        if not tree.is_leaf(u) and not tree.is_leaf(w):
            if lt.labels[u] == lt.labels[w]:
                return False
    return True


def collapse_to_discriminating(lt: LabelledTree) -> LabelledTree:
    """Contract every interior edge whose two endpoints share a label.

    The leaf set and the induced symbolic map are unchanged; the result is
    discriminating.
    """
    tree = lt.tree
    parent_uf = list(range(tree.n_vertices))

    def find(v: int) -> int:
        while parent_uf[v] != v:
            parent_uf[v] = parent_uf[parent_uf[v]]
            v = parent_uf[v]
        return v

    for u, w in tree.edges():
        if not tree.is_leaf(u) and not tree.is_leaf(w) and lt.labels[u] == lt.labels[w]:
            parent_uf[find(u)] = find(w)

    reps = sorted({find(v) for v in range(tree.n_vertices)})
    new_index = {rep: i for i, rep in enumerate(reps)}
    builder = TreeBuilder()
    for rep in reps:
        builder.add_vertex(tree.leaf_name.get(rep))
    seen = set()
    for u, w in tree.edges():
        a, b = new_index[find(u)], new_index[find(w)]
        if a != b and (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            builder.add_edge(a, b)
    new_labels = {new_index[find(v)]: lab for v, lab in lt.labels.items()}
    root = new_index[find(tree.root)] if tree.flavor == ROOTED else None
    newtree = builder.tree(tree.flavor, root=root, leaf_order=tree.leaf_order)
    return LabelledTree(newtree, new_labels, lt.symbols)


def induced_subtree(lt: LabelledTree, leaves: Iterable[str]) -> LabelledTree:
    """The labelled tree spanned by a leaf subset, with degree-two vertices
    suppressed eagerly (rooted trees, |Y| >= 2).  Labels are carried along."""
    tree = lt.tree
    if tree.flavor != ROOTED:
        raise TreeError("induced_subtree is defined on rooted trees")
    keep_names = list(dict.fromkeys(leaves))
    if len(keep_names) < 2:
        raise TreeError("need at least two leaves to induce a subtree")
    for name in keep_names:
        tree.vertex_of(name)
    keep = set(keep_names)

    counts: dict[int, int] = {}

    def count(v: int) -> int:
        c = 1 if tree.leaf_name.get(v) in keep else 0
        c += sum(count(w) for w in tree.children[v])
        counts[v] = c
        return c

    count(tree.root)

    top = tree.root
    while True:
        live = [w for w in tree.children[top] if counts[w] > 0]
        if tree.leaf_name.get(top) in keep:
            break
        if len(live) == 1:
            top = live[0]
        else:
            break

    builder = TreeBuilder()
    labels: dict[int, Symbol] = {}

    def copy(v: int) -> int:
        if tree.is_leaf(v):
            return builder.add_vertex(tree.leaf_name[v])
        live = [w for w in tree.children[v] if counts[w] > 0]
        if len(live) == 1:
            return copy(live[0])
        u = builder.add_vertex()
        labels[u] = lt.labels[v]
        for w in live:
            builder.add_edge(u, copy(w))
        return u

    new_root = copy(top)
    order = [n for n in tree.leaf_order if n in keep]
    newtree = builder.tree(ROOTED, root=new_root, leaf_order=order)
    return LabelledTree(newtree, labels, lt.symbols)


def displayed_triplets(t: PhyloTree | LabelledTree) -> TripletSet:
    """All triplets xy|z displayed by a rooted tree: lca(x,z) = lca(y,z) != lca(x,y).

    Triples whose three pairwise lcas coincide contribute nothing.
    """
    tree = t.tree if isinstance(t, LabelledTree) else t
    if tree.flavor != ROOTED:
        raise TreeError("displayed_triplets is defined on rooted trees")
    found = set()
    for (x, y, z), (xy, xz, yz) in zip(combinations(tree.leaf_order, 3),
                                       table_triples(tree.leaf_lca_table())):
        if xz == yz != xy:
            found.add(Triplet.of(x, y, z))
        elif xy == yz != xz:
            found.add(Triplet.of(x, z, y))
        elif xy == xz != yz:
            found.add(Triplet.of(y, z, x))
    return TripletSet(tree.leaf_order, frozenset(found))


# -- isomorphism --------------------------------------------------------------

def canonical_form(t: PhyloTree | LabelledTree, with_labels: bool = True):
    """A canonical nested-tuple code; equal codes mean isomorphic trees under
    the identity on leaf names (and equal labels when with_labels)."""
    if isinstance(t, LabelledTree):
        tree, labels = t.tree, t.labels
    else:
        tree, labels = t, None
    if not with_labels:
        labels = None

    def code(v: int, parent: Optional[int]):
        if tree.is_leaf(v):
            return ("L", tree.leaf_name[v])
        name = labels[v].name if labels is not None else ""
        kids = tuple(sorted(code(w, v) for w in tree.adj[v] if w != parent))
        return ("I", name, kids)

    if tree.flavor == ROOTED:
        return (ROOTED, code(tree.root, None))
    pivot = tree.vertex_of(min(tree.leaf_order))
    start = tree.adj[pivot][0]
    return (UNROOTED, code(start, None))


def labelled_isomorphic(a: LabelledTree, b: LabelledTree) -> bool:
    """True iff a graph isomorphism exists that fixes every leaf name and
    preserves interior labels."""
    if a.flavor != b.flavor:
        raise TreeError("cannot compare trees of different flavors")
    if set(a.leaf_order) != set(b.leaf_order):
        return False
    return canonical_form(a) == canonical_form(b)


def shape_isomorphic(a: PhyloTree | LabelledTree, b: PhyloTree | LabelledTree) -> bool:
    at = a.tree if isinstance(a, LabelledTree) else a
    bt = b.tree if isinstance(b, LabelledTree) else b
    if at.flavor != bt.flavor or set(at.leaf_order) != set(bt.leaf_order):
        return False
    return canonical_form(at, with_labels=False) == canonical_form(bt, with_labels=False)
