"""The symbolic Farris transform between labelled unrooted trees on X and
labelled rooted trees on X - {r}, and its inverse.

Re-rooting at the neighbor of a leaf r turns median questions about triples
containing r into lca questions, which is what makes the two-way theory
applicable to three-way tree-maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import LabelledTree, PhyloTree, ROOTED, TreeError, UNROOTED, copy_below


@dataclass(frozen=True)
class FarrisResult:
    """The rooted transform plus the interior-vertex correspondence."""

    rooted: LabelledTree
    removed_leaf: str
    vertex_map: dict[int, int]  # original interior vertex -> transformed vertex


def farris_transform(lt: LabelledTree, r: str) -> FarrisResult:
    """Direct all edges away from leaf r, remove r and its edge, and root the
    result at r's former neighbor.  Labels ride along the vertex bijection."""
    tree = lt.tree
    if tree.flavor != UNROOTED:
        raise TreeError("farris_transform needs an unrooted labelled tree")
    if len(tree.leaf_order) < 4:
        raise TreeError("farris_transform needs at least 4 leaves")
    rv = tree.vertex_of(r)
    builder, labels, vmap, root = copy_below(lt, tree.adj[rv][0], rv, tree.leaf_vertex)
    order = [n for n in tree.leaf_order if n != r]
    rooted = builder.tree(ROOTED, root=root, leaf_order=order)
    return FarrisResult(LabelledTree(rooted, labels, lt.symbols), r, vmap)


def farris_inverse(lt: LabelledTree, r: str) -> LabelledTree:
    """Attach a new leaf r to the root and forget edge directions.

    Undoes farris_transform up to labelled isomorphism.  The vertices keep
    their numbers and r is the last vertex; each vertex lists its parent,
    then its children, and the root lists its children, then r.
    """
    tree = lt.tree
    if tree.flavor != ROOTED:
        raise TreeError("farris_inverse needs a rooted labelled tree")
    if r in tree.leaf_vertex:
        raise TreeError(f"leaf name {r!r} already occurs in the tree")

    leaf = tree.n_vertices
    adj = [([] if up is None else [up]) + list(kids)
           for up, kids in zip(tree.parent, tree.children)]
    adj[tree.root].append(leaf)
    adj.append([tree.root])
    unrooted = PhyloTree(UNROOTED, adj, {**tree.leaf_name, leaf: r},
                         leaf_order=tree.leaf_order + (r,))
    return LabelledTree(unrooted, lt.labels, lt.symbols)
