"""Rooted and unrooted phylogenetic trees with interior-vertex labellings.

Vertices are dense integer indices.  Leaves carry distinct names, interior
vertices carry none; in a LabelledTree every interior vertex additionally
carries a Symbol.  Trees are immutable after construction and all queries
are pure, so instances are safe to share.

Every traversal is one iterative depth-first walk (walk), so no tree
operation is limited by the interpreter's recursion depth.  A PhyloTree
takes the walk once, at construction, from its root or, when unrooted,
from vertex 0; it derives parent, children and depth from it and keeps it
for the queries below.  Copies, and text and canonical codes laid out from
another vertex, take a walk of their own.  All of them build their result
bottom-up, over the walk read in reverse.

The trees that parsing, copying, BUILD and the oracle make list, in each
vertex's adjacency, its children in order and then its parent, as a
recursive construction would, and parsing, copying and BUILD number the
vertices as that construction would.  farris_inverse and
collapse_to_discriminating list the parent first, then the children.  The
walk takes neighbours in adjacency order, so the text of such a tree keeps
the order it was built in.

Whole-tree constructions (lca maps, median maps, displayed triplets) read
one all-pairs leaf-lca table, PhyloTree.leaf_lca_table, built in O(n^2)
over the stored walk.  An unrooted tree is rooted at vertex 0 for it: the
median of a triple is the deepest of its three pairwise lcas under any
rooting.  PhyloTree.lca and PhyloTree.median answer single queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .symbols import Symbol, SymbolTable

ROOTED = "rooted"
UNROOTED = "unrooted"

_LEAF_RE = re.compile(r"[A-Za-z0-9_.\-]+")


class TreeError(ValueError):
    """Malformed tree structure or text."""


@dataclass(frozen=True, order=True)
class Triplet:
    """The rooted binary shape ab|outlier, its cherry stored as names a < b
    (Triplet.of orders them): triplets sort as the tuple (a, b, outlier)."""

    a: str
    b: str
    outlier: str

    def __post_init__(self) -> None:
        if self.a == self.b or self.outlier in (self.a, self.b):
            raise TreeError("a triplet needs three distinct leaf names")

    @classmethod
    def of(cls, x: str, y: str, z: str) -> "Triplet":
        return cls(x, y, z) if x < y else cls(y, x, z)

    @property
    def cherry(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    @property
    def leaves(self) -> frozenset[str]:
        return frozenset((self.a, self.b, self.outlier))

    def __repr__(self) -> str:
        return f"{self.a}{self.b}|{self.outlier}"

    def text(self) -> str:
        return f"{self.a} {self.b} | {self.outlier}"


@dataclass(frozen=True)
class TripletSet:
    """A deduplicated set of triplets over a ground set of leaf names."""

    ground: tuple[str, ...]
    triplets: frozenset[Triplet]

    def __post_init__(self) -> None:
        names = set(self.ground)
        for t in self.triplets:
            if t.a not in names or t.b not in names or t.outlier not in names:
                raise TreeError(f"triplet {t!r} uses names outside the ground set")

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    def __contains__(self, t: Triplet) -> bool:
        return t in self.triplets

    def text(self) -> str:
        """One 'a b | z' line per triplet (a < b), sorted by (a, b, z)."""
        return "\n".join(t.text() for t in sorted(self.triplets)) + "\n"


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
                 "leaf_order", "parent", "children", "depth", "_walked")

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
        if flavor == UNROOTED and root is not None:
            raise TreeError("unrooted tree cannot carry a root")
        if flavor == ROOTED and (root is None or not (0 <= root < n)):
            raise TreeError("rooted tree needs a valid root index")
        order, parent = walk(self.adj, 0 if root is None else root)
        if len(order) != n:
            raise TreeError("tree is not connected")
        self._walked = (order, parent)
        self.root = root

        if flavor == ROOTED:
            children = [tuple(w for w in nbrs if w != p)
                        for nbrs, p in zip(self.adj, parent)]
            depth = [0] * n
            for v in order[1:]:
                depth[v] = depth[parent[v]] + 1
            self.parent = tuple(None if p < 0 else p for p in parent)
            self.children = tuple(children)
            self.depth = tuple(depth)
            for v in range(n):
                if v in self.leaf_name:
                    if children[v]:
                        raise TreeError(f"leaf {self.leaf_name[v]!r} has children")
                elif len(children[v]) < 2 and n > 1:
                    raise TreeError("root must have at least two children" if v == root
                                    else "interior vertex with a single child")
        else:
            self.parent = ()
            self.children = ()
            self.depth = ()
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
        return _climb(self._walked[1], u, v)

    # -- all-pairs lcas and medians -----------------------------------------

    def leaf_lca_table(self) -> list[list[int]]:
        """lca[i][j] for leaves i, j indexed by leaf_order: their least
        common ancestor with the tree rooted at its root, or at vertex 0 when
        unrooted; lca[i][i] is the leaf itself.

        Every pair is filled once, at the vertex where the two leaves'
        subtrees meet, so the table costs O(n^2) over the stored walk.  Under
        any rooting, two of the three pairwise lcas of a leaf triple coincide
        and the third, the deepest, is the triple's median.
        """
        order, parent = self._walked
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
        parent = self._walked[1]
        return median_of(_climb(parent, u, v), _climb(parent, u, w),
                         _climb(parent, v, w))


def walk(adj: Sequence[Sequence[int]], start: int,
         stop: int = -1) -> tuple[list[int], list[int]]:
    """Iterative depth-first preorder from start, taking neighbours in
    adjacency order and never stepping to stop; with each vertex's parent
    (stop at start, -1 where the walk does not reach).  Read in reverse, the
    order is a post-order: every vertex comes after all of its descendants.
    Raises TreeError on meeting a vertex twice, i.e. on a cycle."""
    parent = [-1] * len(adj)
    parent[start] = stop
    seen = [False] * len(adj)
    order = []
    stack = [start]
    while stack:
        v = stack.pop()
        if seen[v]:
            raise TreeError(f"vertex {v} is reached twice: the graph has a cycle")
        seen[v] = True
        order.append(v)
        up = parent[v]
        for w in reversed(adj[v]):
            if w != up:
                parent[w] = v
                stack.append(w)
    return order, parent


def _climb(parent: Sequence[int], u: int, v: int) -> int:
    """The lca of u and v: the first vertex on v's path up that lies on
    u's."""
    above = set()
    while u >= 0:
        above.add(u)
        u = parent[u]
    while v not in above:
        v = parent[v]
    return v


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
    """Punctuation and leaf names, skipping whitespace; any other character,
    matched by the group, is an error."""
    tokens = []
    for m in re.finditer(rf"[(),;]|{_LEAF_RE.pattern}|(\S)", newick):
        if m.lastindex:
            raise TreeError(f"unexpected character {m.group()!r} in newick text")
        tokens.append(m.group())
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
    open_kids: list[list[int]] = []  # the children read so far of each open '('
    i = 0
    while True:
        while tokens[i] == "(":
            open_kids.append([])
            i += 1
        if tokens[i] in "(),;":
            raise TreeError("expected a leaf name")
        v = builder.add_vertex(tokens[i])
        i += 1
        # close every group that ends here; v is the subtree just finished
        while open_kids and tokens[i] == ")":
            open_kids[-1].append(v)
            i += 1
            if tokens[i] in "(),;":
                raise TreeError("interior vertex is missing its label")
            v = builder.add_vertex()
            labels[v] = table.intern(tokens[i])
            for k in open_kids.pop():
                builder.add_edge(v, k)
            i += 1
        if not open_kids:
            break
        if tokens[i] != ",":
            raise TreeError("expected ',' or ')' in newick text")
        open_kids[-1].append(v)
        i += 1
    top = v
    if i != len(tokens) - 1:  # tokens[-1] is the ';'
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
        start = tree.root
    else:
        # lay the tree out from the interior vertex next to the first leaf
        start = tree.adj[tree.vertex_of(tree.leaf_order[0])][0]
    return _bottom_up(tree, start, lambda v: tree.leaf_name[v],
                      lambda v, kids: "(" + ",".join(kids) + ")" + lt.labels[v].name) + ";"


def _bottom_up(tree: PhyloTree, start: int, leaf: Callable[[int], str],
               interior: Callable[[int, list[str]], str]) -> str:
    """Fold the tree laid out from start into one string, children first:
    leaf(v) at a leaf, interior(v, the strings of v's children in adjacency
    order) at an interior vertex."""
    order, parent = tree._walked
    if order[0] != start:
        order, parent = walk(tree.adj, start)
    done: dict[int, str] = {}
    for v in reversed(order):
        if v in tree.leaf_name:
            done[v] = leaf(v)
        else:
            done[v] = interior(v, [done.pop(w) for w in tree.adj[v] if w != parent[v]])
    return done[start]


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

    One pass over the stored walk: an interior vertex whose label equals its
    parent's takes its parent's image, and every other vertex gets a new
    one, numbered in walk order, which lists its parent's image and then its
    children's.  The leaf set and the induced symbolic map are unchanged;
    the result is discriminating.
    """
    tree = lt.tree
    labels = lt.labels
    order, parent = tree._walked
    builder = TreeBuilder()
    image = [0] * tree.n_vertices
    kept: dict[int, Symbol] = {}
    for v in order:
        up = parent[v]
        if up in labels and v in labels and labels[v] == labels[up]:
            image[v] = image[up]
            continue
        image[v] = builder.add_vertex(tree.leaf_name.get(v))
        if v in labels:
            kept[image[v]] = labels[v]
        if up >= 0:
            builder.add_edge(image[up], image[v])
    # a rooted walk starts at the root, so the root's image is vertex 0; an
    # unrooted walk may start at a leaf, which merges with nothing
    root = 0 if tree.flavor == ROOTED else None
    newtree = builder.tree(tree.flavor, root=root, leaf_order=tree.leaf_order)
    return LabelledTree(newtree, kept, lt.symbols)


def copy_below(lt: LabelledTree, start: int, stop: int, keep: Container[str]
               ) -> tuple[TreeBuilder, dict[int, Symbol], dict[int, int], int]:
    """Copy the part of lt's tree that hangs from start, away from stop,
    keeping only the leaves named in keep.  Interior vertices left with one
    child are suppressed and those left with none dropped.

    Returns the builder, the labels of the copied interior vertices, the map
    from each copied interior vertex to its copy, and the copy of start's
    subtree.  Copies are numbered in preorder and each copy's adjacency
    lists its children in order, then its parent, as a recursive copy would.
    """
    tree = lt.tree
    order, parent = walk(tree.adj, start, stop)
    kids: dict[int, list[int]] = {}  # the live children of every live vertex
    for v in reversed(order):
        if v in tree.leaf_name:
            if tree.leaf_name[v] in keep:
                kids[v] = []
        else:
            live = [w for w in tree.adj[v] if w != parent[v] and w in kids]
            if live:
                kids[v] = live
    builder = TreeBuilder()
    copy = {v: builder.add_vertex(tree.leaf_name.get(v))
            for v in order if v in kids and len(kids[v]) != 1}
    image: dict[int, int] = {}  # a suppressed vertex's image is its child's
    for v in reversed(order):
        if v in copy:
            image[v] = copy[v]
            for w in kids[v]:
                builder.add_edge(copy[v], image[w])
        elif v in kids:
            image[v] = image[kids[v][0]]
    vmap = {v: u for v, u in copy.items() if kids[v]}
    return builder, {u: lt.labels[v] for v, u in vmap.items()}, vmap, image[start]


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
    builder, labels, _, root = copy_below(lt, tree.root, -1, keep)
    order = [n for n in tree.leaf_order if n in keep]
    newtree = builder.tree(ROOTED, root=root, leaf_order=order)
    return LabelledTree(newtree, labels, lt.symbols)


def triplets_of(ground: Sequence[str],
                triples: Iterable[tuple[tuple[str, ...], tuple]]) -> TripletSet:
    """The triplets read off leaf triples (x, y, z) of the ground, each with
    its three pair values (xy, xz, yz): a rooted tree's pairwise lcas or a
    pair map's values.  xy|z where xz = yz != xy; a triple whose three values
    agree, or all differ, contributes nothing."""
    found = set()
    for (x, y, z), (xy, xz, yz) in triples:
        if xz == yz != xy:
            found.add(Triplet.of(x, y, z))
        elif xy == yz != xz:
            found.add(Triplet.of(x, z, y))
        elif xy == xz != yz:
            found.add(Triplet.of(y, z, x))
    return TripletSet(tuple(ground), frozenset(found))


def displayed_triplets(t: PhyloTree | LabelledTree) -> TripletSet:
    """All triplets xy|z displayed by a rooted tree: lca(x,z) = lca(y,z) != lca(x,y)."""
    tree = t.tree if isinstance(t, LabelledTree) else t
    if tree.flavor != ROOTED:
        raise TreeError("displayed_triplets is defined on rooted trees")
    return triplets_of(tree.leaf_order, zip(combinations(tree.leaf_order, 3),
                                            table_triples(tree.leaf_lca_table())))


# -- isomorphism --------------------------------------------------------------

def canonical_form(t: PhyloTree | LabelledTree, with_labels: bool = True) -> str:
    """A canonical code; equal codes mean isomorphic trees under the identity
    on leaf names (and equal labels when with_labels).

    The code is a flat string, so comparing the codes of deep trees needs no
    recursion: leaf names and labels are written by repr, which quotes them,
    and the codes of each vertex's children are sorted."""
    if isinstance(t, LabelledTree):
        tree, labels = t.tree, t.labels
    else:
        tree, labels = t, None
    if not with_labels:
        labels = None
    if tree.flavor == ROOTED:
        start = tree.root
    else:
        start = tree.adj[tree.vertex_of(min(tree.leaf_order))][0]
    code = _bottom_up(
        tree, start, lambda v: repr(tree.leaf_name[v]),
        lambda v, kids: "(" + ",".join(sorted(kids)) + ")"
        + repr(labels[v].name if labels is not None else ""))
    return f"{tree.flavor}:{code}"


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
