"""Seeded inputs for the benchmark: random discriminating labelled trees,
the maps they induce, one-cell near-miss mutants, and the known answer for
every generated file.

Trees are grown by leaf insertion and labelled over A, B, C so that no
interior edge joins two equal labels.  The maps are computed here from the
benchmark's own lca table, not through the program's map constructions,
and are written with the public ``save_three_way_map``.  A mutant changes
the value of one triple; its verdict comes from the condition checker run
on the restriction to every 5-subset containing that triple.  Every other
restriction is one of the clean map, and a map on at least five leaves is
representable iff all its 5-subset restrictions are.  Mutants that turn out
representable are redrawn, so every mutant has a known negative verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Optional

from trisym.conditions import check_three_way_ultrametric, check_tree_map
from trisym.maps import (KIND_MULTISET, KIND_SYMBOL, ThreeWayMap, restrict,
                         save_three_way_map)
from trisym.symbols import SymbolTable, TripleMultiset
from trisym.trees import (LabelledTree, ROOTED, TreeBuilder,
                          collapse_to_discriminating)

SYMBOLS = ("A", "B", "C")
POLYTOMY_SHARE = 0.2  # share of insertions that attach to an existing vertex


@dataclass(frozen=True)
class Case:
    """One generated input file and its known answer."""

    path: Path
    representable: bool
    expected_tree: Optional[LabelledTree]  # collapsed generating tree, clean maps
    mutated: Optional[tuple[str, str, str]]  # the changed triple, mutants


@dataclass
class _Tree:
    """A growing tree: adjacency lists, leaf names, and (rooted) a root."""

    adj: list[list[int]]
    names: dict[int, str]
    root: Optional[int]

    def add(self, name: Optional[str] = None) -> int:
        self.adj.append([])
        if name is not None:
            self.names[len(self.adj) - 1] = name
        return len(self.adj) - 1

    def link(self, u: int, v: int) -> None:
        self.adj[u].append(v)
        self.adj[v].append(u)

    def unlink(self, u: int, v: int) -> None:
        self.adj[u].remove(v)
        self.adj[v].remove(u)

    def interior(self) -> list[int]:
        return [v for v in range(len(self.adj)) if v not in self.names]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u in range(len(self.adj)) for w in self.adj[u] if u < w]


def _leaf_names(n: int) -> list[str]:
    width = len(str(n))
    return [f"x{i:0{width}d}" for i in range(1, n + 1)]


def _grow(flavor: str, n: int, rng: random.Random) -> _Tree:
    """Leaf insertion: each new leaf subdivides a random edge (or, rooted,
    the edge above the root) or, with probability POLYTOMY_SHARE, hangs off
    a random interior vertex."""
    names = _leaf_names(n)
    t = _Tree([], {}, None)
    hub = t.add()
    first = 2 if flavor == ROOTED else 3
    for name in names[:first]:
        t.link(hub, t.add(name))
    if flavor == ROOTED:
        t.root = hub
    for name in names[first:]:
        leaf = t.add(name)
        if rng.random() < POLYTOMY_SHARE:
            t.link(rng.choice(t.interior()), leaf)
            continue
        edges = t.edges()
        pick = rng.randrange(len(edges) + (flavor == ROOTED))
        mid = t.add()
        if pick == len(edges):  # above the root
            t.link(mid, t.root)
            t.root = mid
        else:
            u, w = edges[pick]
            t.unlink(u, w)
            t.link(u, mid)
            t.link(mid, w)
        t.link(mid, leaf)
    return t


def _label(t: _Tree, rng: random.Random) -> dict[int, str]:
    """A random discriminating labelling: each interior vertex differs from
    its interior neighbour nearer the start vertex."""
    start = t.root if t.root is not None else t.interior()[0]
    labels = {start: rng.choice(SYMBOLS)}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if w in t.names or w in labels:
                continue
            labels[w] = rng.choice([s for s in SYMBOLS if s != labels[v]])
            stack.append(w)
    return labels


def _pair_tops(t: _Tree, labels: dict[int, str], order: list[str]):
    """For every leaf pair, the label and depth of its lca (rooted at the
    tree root, or at an interior vertex for unrooted trees)."""
    start = t.root if t.root is not None else t.interior()[0]
    parent = {start: None}
    depth = {start: 0}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    vertex = {name: v for v, name in t.names.items()}
    ancestors = {}
    for name in order:
        chain, v = [], vertex[name]
        while v is not None:
            chain.append(v)
            v = parent[v]
        ancestors[name] = chain
    tops = {}
    for x, y in combinations(order, 2):
        above_y = set(ancestors[y])
        top = next(v for v in ancestors[x] if v in above_y)
        tops[x, y] = (labels[top], depth[top])
    return tops


def _tree_values(flavor: str, t: _Tree, labels: dict[int, str],
                 order: list[str], table: SymbolTable) -> list:
    """The map values in ``combinations(order, 3)`` order: the multiset of
    pairwise lca labels (rooted) or the median label, which is the label of
    the deepest pairwise lca under any rooting (unrooted)."""
    tops = _pair_tops(t, labels, order)
    sym = {s: table.intern(s) for s in SYMBOLS}
    values = []
    for x, y, z in combinations(order, 3):
        three = (tops[x, y], tops[x, z], tops[y, z])
        if flavor == ROOTED:
            values.append(TripleMultiset.of(*(sym[lab] for lab, _ in three)))
        else:
            values.append(sym[max(three, key=lambda p: p[1])[0]])
    return values


def _labelled_tree(flavor: str, t: _Tree, labels: dict[int, str],
                   order: list[str], table: SymbolTable) -> LabelledTree:
    builder = TreeBuilder()
    for v in range(len(t.adj)):
        builder.add_vertex(t.names.get(v))
    for u, w in t.edges():
        builder.add_edge(u, w)
    tree = builder.tree(flavor, root=t.root, leaf_order=order)
    return LabelledTree(tree, {v: table.intern(s) for v, s in labels.items()}, table)


def _alternatives(kind: str, table: SymbolTable) -> list:
    syms = [table.intern(s) for s in SYMBOLS]
    if kind == KIND_SYMBOL:
        return syms
    return [TripleMultiset.of(*c) for c in combinations_with_replacement(syms, 3)]


def subsets_representable(d: ThreeWayMap, triple: tuple[str, str, str]) -> bool:
    """The verdict on a map that differs from a representable one only on
    ``triple``: every 5-subset restriction containing the triple passes the
    condition checker (M for plain symbols, P for multisets)."""
    check = check_tree_map if d.kind == KIND_SYMBOL else check_three_way_ultrametric
    others = [n for n in d.ground if n not in triple]
    return not any(check(restrict(d, triple + pair), stop_after=1)
                   for pair in combinations(others, 2))


def generate(flavor: str, leaves: int, pairs: int, seed: str, outdir: Path,
             all_symbols: bool = False) -> list[Case]:
    """Write ``pairs`` clean maps and one mutant of each into ``outdir``.

    The same seed string gives byte-identical files.  With ``all_symbols``
    every map, mutants included, uses all three symbols in its image.
    """
    if leaves < 5:
        raise ValueError("known answers for mutants need at least five leaves")
    rng = random.Random(seed)
    kind = KIND_MULTISET if flavor == ROOTED else KIND_SYMBOL
    outdir.mkdir(parents=True, exist_ok=True)
    cases: list[Case] = []
    for i in range(pairs):
        table = SymbolTable(SYMBOLS)
        while True:
            t = _grow(flavor, leaves, rng)
            labels = _label(t, rng)
            if not all_symbols or len(set(labels.values())) == len(SYMBOLS):
                break
        order = _leaf_names(leaves)
        values = _tree_values(flavor, t, labels, order, table)
        clean = ThreeWayMap(kind, order, values, table)
        path = outdir / f"map{i:02d}.tsv"
        path.write_text(save_three_way_map(clean))
        expected = collapse_to_discriminating(_labelled_tree(flavor, t, labels, order, table))
        cases.append(Case(path, True, expected, None))

        triples = list(combinations(order, 3))
        choices = _alternatives(kind, table)
        while True:
            at = rng.randrange(len(triples))
            new = list(values)
            new[at] = rng.choice([v for v in choices if v != values[at]])
            mutant = ThreeWayMap(kind, order, new, table)
            if all_symbols and len({s.name for s in mutant.image_symbols()}) < len(SYMBOLS):
                continue
            if not subsets_representable(mutant, triples[at]):
                break
        path = outdir / f"map{i:02d}-mutant.tsv"
        path.write_text(save_three_way_map(mutant))
        cases.append(Case(path, False, None, triples[at]))
    return cases
