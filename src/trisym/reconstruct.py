"""Tree reconstruction from maps, triplet extraction and BUILD.

Both decision procedures reduce to a two-way map D, build its
discriminating labelled tree by BUILD's split of D on symbols
(_tree_from_two_way), and verify the candidate exactly against the
input.  Plain-symbol maps get D by projecting through one leaf, which the
candidate attaches in place.  Multiset maps on five or more leaves
recover each pair value from one five-point combination, in Theta(n^2)
lookups of packed value codes, by the kernel P1 shares in conditions
(_five_point_pairs); this module never sees a code.  The final verification
is mandatory: D can have a tree while the input has none.  The
candidate's map is laid out over the input's own ground order, so the two
compare as one tuple of values.

The paper's triplet route stays public: triplets_from_two_way lists D's
triplets, on which build gives the same tree, numbered alike, and it
names the failing stage where the split fails.  The route for multiset
maps (triplets_from_three_way, recover_two_way, is_fixed_cherry_map)
extracts triplets from the three-way values directly, by a Theta(n^4)
witness search.  The decision procedure does not use it; it stays public
as an independent view of the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .conditions import _delta, _five_point_pairs, classify_quartet, pair_combination
from .maps import (KIND_MULTISET, KIND_PAIR, KIND_SYMBOL, MapError, ThreeWayMap, TwoWayMap,
                   farris_project, three_way_from_rooted, three_way_from_unrooted)
from .symbols import Symbol, TripleMultiset
# displayed_triplets and collapse_to_discriminating are not called here; they
# stay importable from this module, where callers look them up as attributes.
from .trees import (LabelledTree, PhyloTree, ROOTED, TreeBuilder, TreeError, Triplet,
                    TripletSet, collapse_to_discriminating, displayed_triplets,
                    triplets_of)
from .farris import farris_inverse

REPRESENTABLE = "representable"
NOT_REPRESENTABLE = "not-representable"

STAGE_TRIPLETS = "triplet-extraction"
STAGE_BUILD = "build"
STAGE_LABELS = "labelling-verification"


class NotUltrametricError(MapError):
    """A 3-subset of a two-way map carries three pairwise distinct values."""

    def __init__(self, witness: tuple[str, str, str]):
        self.witness = witness
        super().__init__(f"triple ({','.join(witness)}) has three distinct values")


class PairContradictionError(MapError):
    """Different third leaves force conflicting values onto one pair."""

    def __init__(self, pair: tuple[str, str], detail: str):
        self.pair = pair
        super().__init__(f"pair ({pair[0]},{pair[1]}): {detail}")


@dataclass(frozen=True)
class ReconstructionOutcome:
    """Verdict of a decision procedure, with the discriminating tree when one
    exists and the stage that failed when one does not."""

    verdict: str
    tree: Optional[LabelledTree] = None
    failure_stage: Optional[str] = None
    unique: Optional[bool] = None
    detail: str = ""

    @property
    def representable(self) -> bool:
        return self.verdict == REPRESENTABLE

    def text(self) -> str:
        from .trees import tree_to_text

        lines = [f"verdict: {self.verdict}"]
        if self.failure_stage:
            lines.append(f"stage: {self.failure_stage}")
        if self.detail:
            lines.append(f"detail: {self.detail}")
        if self.unique is not None:
            lines.append(f"unique: {'yes' if self.unique else 'no'}")
        out = "\n".join(lines) + "\n"
        if self.tree is not None:
            out += tree_to_text(self.tree)
        return out


# -- triplets from two-way maps --------------------------------------------------

def triplets_from_two_way(d: TwoWayMap) -> TripletSet:
    """Per 3-subset, emit xy|z when D(x,y) differs from the two equal other
    values; all-equal subsets emit nothing.  The first subset, in
    combinations order, with three distinct values raises
    NotUltrametricError before any triplet is made."""
    if d.kind != KIND_PAIR:
        raise MapError("triplets_from_two_way applies to two-way maps")
    for names, (xy, xz, yz) in d.triples():
        if xy != xz != yz != xy:
            raise NotUltrametricError(names)
    return triplets_of(d.ground, d.triples())


# -- BUILD ------------------------------------------------------------------------

def build(triplets: Iterable[Triplet] | TripletSet | TwoWayMap,
          ground: Sequence[str]) -> Optional[PhyloTree]:
    """The BUILD consistency procedure: a rooted phylogenetic tree on the
    ground set displaying every input triplet, or None when none exists.

    Each leaf set connects x,y for every triplet xy|z whose three leaves lie
    in it, splits into the connected components, and fails when it does not
    split, so the result is the minimally resolved consistent tree.
    Triplets are encoded once as ground-set indices, and each set hands a
    triplet down only to the component holding all three of its leaves;
    the others are resolved there for good.  The total work is the sum of
    the set sizes, not the depth times the number of triplets.

    A pair map D stands for its triplets (xy|z where D(x,y) differs from
    D(x,z) = D(y,z)) and is split on symbols without listing them; None
    then also covers a triple of three distinct values.
    """
    ground = tuple(ground)
    if isinstance(triplets, TwoWayMap):
        return _grow(ground, _pair_map_split(triplets, ground), None)
    pos = {name: i for i, name in enumerate(ground)}
    coded = []
    for t in triplets:
        try:
            coded.append((pos[t.a], pos[t.b], pos[t.outlier]))
        except KeyError:
            raise TreeError(f"triplet {t!r} uses names outside the ground set") from None
    if len(ground) < 2:
        raise TreeError("BUILD needs at least two leaves")
    uf = list(range(len(ground)))
    comp_of = [0] * len(ground)

    def find(a: int) -> int:
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def split(leaves: list[int], here: list) -> Optional[tuple]:
        for a in leaves:
            uf[a] = a
        for a, b in {(a, b) for a, b, _ in here}:
            uf[find(a)] = find(b)
        comps: dict[int, list[int]] = {}
        for a in leaves:
            comps.setdefault(find(a), []).append(a)
        if len(comps) == 1:
            return None
        # leaves are in ground order, so each component's first leaf is its
        # smallest and the dict keeps the components in ground order
        parts = list(comps.values())
        below: list[list[tuple[int, int, int]]] = [[] for _ in parts]
        for k, comp in enumerate(parts):
            for a in comp:
                comp_of[a] = k
        for t in here:
            k = comp_of[t[0]]
            if comp_of[t[2]] == k:
                below[k].append(t)
        return list(zip(parts, below))

    return _grow(ground, split, coded)


def _pair_map_split(d: TwoWayMap, ground: tuple[str, ...]) -> Callable:
    """BUILD's split of a leaf set for the triplets of a pair map D.

    A leaf set L tries the distinct values D(x, y), x its first leaf and y
    in order, as its label s; the first s whose graph {xy : D(x,y) != s}
    on L is disconnected splits L into that graph's components.  Pairs
    across two components carry s, so a split that completes yields a tree
    whose lca map is D.  If D has a tree with root label s, s is the only
    symbol that splits L, since every other graph holds the s-pairs, which
    join the root's children completely.  A child's leaves are connected in
    the graph of s, so its label differs from s: the tree is the
    discriminating one, which BUILD gives on D's listed triplets too.  This
    is the cotree decomposition of symbolic ultrametrics (Boecker & Dress
    1998); it completes exactly when D is one.
    """
    if len(ground) < 2 or sorted(ground) != sorted(d.ground):
        raise TreeError("BUILD needs a pair map on the ground set, of two or more leaves")
    table = d._pair_table()
    if ground != d.ground:
        order = list(map(d._pos.__getitem__, ground))
        table = [[row[j] for j in order] for row in map(table.__getitem__, order)]

    def split(leaves: list[int], _) -> Optional[list]:
        first = table[leaves[0]]
        for s in dict.fromkeys([first[y] for y in leaves[1:]]):
            parts, rest = [], leaves
            while rest:
                comp, rest = [rest[0]], rest[1:]
                for a in comp:
                    row = table[a]
                    near = [b for b in rest if row[b] != s]
                    if near:
                        comp += near
                        rest = [b for b in rest if row[b] == s]
                parts.append((sorted(comp), None))
            if len(parts) > 1:
                return parts
        return None

    return split


def _grow(ground: tuple[str, ...], split: Callable, data) -> Optional[PhyloTree]:
    """A rooted tree grown top-down from a task stack, or None when
    split(leaves, data) returns None for a set.  Otherwise split returns
    [(component, data), ...] with the components in ground order of their
    first leaves.  Sets come off the stack in preorder, so vertices are
    numbered as a recursive construction would number them; adjacency
    lists hold the children, then the parent.
    """
    builder = TreeBuilder()
    kids: list[list[int]] = []
    tasks = [(-1, list(range(len(ground))), data)]
    while tasks:
        up, leaves, data = tasks.pop()
        if len(leaves) == 1:
            v = builder.add_vertex(ground[leaves[0]])
        else:
            got = split(leaves, data)
            if got is None:
                return None
            v = builder.add_vertex()
            tasks.extend((v, comp, sub) for comp, sub in reversed(got))
        kids.append([])
        if up >= 0:
            kids[up].append(v)
    for v in reversed(range(len(kids))):
        for w in kids[v]:
            builder.add_edge(v, w)
    return builder.tree(ROOTED, root=0, leaf_order=ground)


# -- recovery of the two-way map ---------------------------------------------------

def recover_two_way(d: ThreeWayMap, triplets: TripletSet) -> TwoWayMap:
    """Recover the pairwise map a representing tree would induce, given the
    triplets that tree displays.

    For each pair {x,y} every third leaf z contributes a candidate:
    no triplet on {x,y,z} -> the single symbol of d(x,y,z); xy|z -> the
    minority symbol; a triplet with outlier x or y -> the majority symbol.
    Conflicting candidates raise PairContradictionError, which is evidence
    of non-representability.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("recover_two_way applies to multiset maps")
    by_leaves: dict[frozenset, Triplet] = {}
    for t in triplets:
        by_leaves[t.leaves] = t
    values: list[Symbol] = []
    for x, y in combinations(d.ground, 2):
        candidate: Optional[Symbol] = None
        for z in d.ground:
            if z in (x, y):
                continue
            value: TripleMultiset = d.value(x, y, z)  # type: ignore[assignment]
            t = by_leaves.get(frozenset((x, y, z)))
            if t is None:
                if len(value.support) != 1:
                    raise PairContradictionError(
                        (x, y), f"no triplet on ({x},{y},{z}) but value "
                                f"{value.text()} is not constant")
                got = value.entries[0]
            elif t.outlier == z:
                got = value.minority
            else:
                got = value.majority
            if got is None:
                raise PairContradictionError(
                    (x, y), f"value {value.text()} on ({x},{y},{z}) has three "
                            f"distinct symbols")
            if candidate is None:
                candidate = got
            elif candidate != got:
                raise PairContradictionError(
                    (x, y), f"third leaves disagree: {candidate.name} vs {got.name}")
        values.append(candidate)  # type: ignore[arg-type]
    return TwoWayMap(d.ground, values, d.symbols)


def _recover_two_way_by_five_points(d: ThreeWayMap, rotate: bool = False) -> TwoWayMap:
    """Recover the pairwise map of a multiset map on |X| >= 5 with one
    five-point combination per pair (conditions._five_point_pairs):
    {p,q} plus the first three other ground leaves, or with rotate the
    first later window that gives a single symbol.  A representable map
    yields its true pair value from every 5-subset; the first pair left
    without a value raises PairContradictionError, naming the pair, its
    first 5-subset and that combination."""
    ground = d.ground
    values = _five_point_pairs(d, rotate)
    for (p, q), sym in zip(combinations(ground, 2), values):
        if sym is None:
            e, f, g = [x for x in ground[:5] if x != p and x != q][:3]
            five = [x for x in ground if x in (p, q, e, f, g)]
            raise PairContradictionError(
                (p, q), f"combination over ({','.join(five)}) is "
                        f"{pair_combination(d, five, p, q).text()}, not a single symbol")
    return TwoWayMap(ground, values, d.symbols)


# -- fixed-cherry maps ---------------------------------------------------------------

def is_fixed_cherry_map(d: ThreeWayMap) -> Optional[tuple[frozenset, Symbol, Symbol]]:
    """Detect the degenerate two-symbol pattern of a depth-two tree whose root
    covers one two-leaf cherry and one fan of all remaining leaves.

    Such a map sends triples avoiding the cherry to three copies of the fan
    symbol and every other triple to two copies of the root symbol plus one
    fan symbol.  Returns (cherry, root_symbol, fan_symbol) or None.  Needs
    |X| >= 5; on four leaves the cherry is not identifiable.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("fixed-cherry detection applies to multiset maps")
    if len(d.ground) < 5:
        raise MapError("fixed-cherry detection needs a ground set of size at least 5")
    image = d.image()
    if len(image) != 2:
        return None
    flat = [v for v in image if len(v.support) == 1]  # type: ignore[union-attr]
    if len(flat) != 1:
        return None
    fan_value = flat[0]
    fan = fan_value.entries[0]  # type: ignore[union-attr]
    (mixed_value,) = image - {fan_value}
    root = mixed_value.majority  # type: ignore[union-attr]
    if root is None or root == fan or mixed_value.minority != fan:  # type: ignore[union-attr]
        return None
    covered = {n for t, v in d.triples() if v == fan_value for n in t}
    cherry = frozenset(set(d.ground) - covered)
    if len(cherry) != 2:
        return None
    for t, v in d.triples():
        want = fan_value if set(t).isdisjoint(cherry) else mixed_value
        if v != want:
            return None
    return cherry, root, fan


# -- triplets from multiset maps -------------------------------------------------------

def triplets_from_three_way(d: ThreeWayMap) -> TripletSet:
    """Extract the triplet set a discriminating representing tree would
    display, for maps that are not fixed-cherry maps.

    xy|z is emitted when some fourth leaf u witnesses either
      (a) d(x,u,z) = d(y,u,z) != d(x,y,u), where additionally a constant
          d(x,y,u) must differ from d(x,y,z); or
      (b) the three values d(x,u,z), d(y,u,z), d(x,y,u) are pairwise distinct
          while the majority symbols of the first two agree and differ from
          the majority symbol of the third.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("triplet extraction applies to multiset maps")
    if len(d.ground) < 4:
        raise MapError("triplet extraction needs a ground set of size at least 4")
    found = set()
    for a, b, c in combinations(d.ground, 3):
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if _witnessed(d, x, y, z):
                found.add(Triplet.of(x, y, z))
    return TripletSet(d.ground, frozenset(found))


def _witnessed(d: ThreeWayMap, x: str, y: str, z: str) -> bool:
    for u in d.ground:
        if u in (x, y, z):
            continue
        v_xuz = d.value(x, u, z)
        v_yuz = d.value(y, u, z)
        v_xyu = d.value(x, y, u)
        if v_xuz == v_yuz != v_xyu:
            if len(v_xyu.support) == 1 and v_xyu == d.value(x, y, z):  # type: ignore[union-attr]
                continue
            return True
        if (v_xuz != v_yuz and v_xuz != v_xyu and v_yuz != v_xyu):
            ma, mb, mc = v_xuz.majority, v_yuz.majority, v_xyu.majority  # type: ignore[union-attr]
            if ma is not None and ma == mb and ma != mc:
                return True
    return False


# -- the tree of a pair map ------------------------------------------------------------

def _tree_from_two_way(d2: TwoWayMap) -> LabelledTree | ReconstructionOutcome:
    """The discriminating labelled rooted tree of a pair map D, or the
    negative outcome of the triplet or BUILD stage, which
    triplets_from_two_way names where the split fails."""
    tree = _split_tree(d2)
    if tree is not None:
        return tree
    try:
        triplets_from_two_way(d2)
        stage, detail = STAGE_BUILD, "triplets are not displayed by any tree"
    except NotUltrametricError as err:
        stage, detail = STAGE_TRIPLETS, str(err)
    return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=stage, detail=detail)


def _split_tree(d2: TwoWayMap) -> Optional[LabelledTree]:
    """BUILD on a pair map D itself, each interior label read as D across
    its first two children: D's discriminating labelled rooted tree, whose
    lca map is D, or None where the split fails (exactly when D is not a
    symbolic ultrametric)."""
    shape = build(d2, d2.ground)
    if shape is None:
        return None
    # children are numbered after their parent: pass each first leaf up
    first = dict(shape.leaf_name)
    labels = {}
    for v in reversed(range(len(shape.adj))):
        kids = shape.children[v]
        if kids:
            first[v] = first[kids[0]]
            labels[v] = d2.value(first[kids[0]], first[kids[1]])
    return LabelledTree(shape, labels, d2.symbols)


def _candidate(d: ThreeWayMap, r: Optional[str],
               rotate: bool = False) -> LabelledTree | ReconstructionOutcome:
    """The decision's stages before the final verification: d's unverified
    candidate tree, or the outcome of the stage that fails.  A symbol map
    (|X| >= 4) is projected through leaf r and r attached back to the
    projection's tree; a multiset map (|X| >= 5) gets the tree of its pair
    values, recovered with rotating windows when rotate is set."""
    if d.kind == KIND_SYMBOL:
        rooted = _tree_from_two_way(farris_project(d, r))  # type: ignore[arg-type]
        if isinstance(rooted, ReconstructionOutcome):
            return rooted
        return farris_inverse(rooted, r)  # type: ignore[arg-type]
    try:
        pairwise = _recover_two_way_by_five_points(d, rotate)
    except PairContradictionError as err:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_LABELS,
                                     detail=str(err))
    return _tree_from_two_way(pairwise)


def _verified(d: ThreeWayMap,
              candidate: LabelledTree | ReconstructionOutcome) -> ReconstructionOutcome:
    """The verdict on a candidate: representable exactly when its map,
    laid out over d.ground, is d.  The candidate keeps its own leaf order,
    which tree_to_text starts from."""
    if isinstance(candidate, ReconstructionOutcome):
        return candidate
    construct = three_way_from_rooted if d.kind == KIND_MULTISET else three_way_from_unrooted
    if construct(candidate, d.ground) == d:
        return ReconstructionOutcome(REPRESENTABLE, tree=candidate, unique=True)
    return ReconstructionOutcome(
        NOT_REPRESENTABLE, failure_stage=STAGE_LABELS,
        detail="candidate tree does not reproduce the map on all triples")


def near_tree(d: ThreeWayMap | TwoWayMap) -> Optional[LabelledTree]:
    """A labelled tree on d's ground built by the decision's own stages
    without the final verification, or None where none is built; on a
    representable map, the map's tree.  The condition checkers take it as
    near to bound their scans by Delta, the subsets where d differs from
    its map.  A pair map gets its split's tree, which exists exactly when
    the map is the tree's map.  A multiset map (|X| >= 5) gets the
    candidate of rotating five-point windows.  A symbol map (|X| >= 4) gets
    the candidate through the first of its first four leaves whose Delta
    has at most one triple, which no other tree beats, or else the one with
    the smallest Delta: a one-cell change holds three leaves, so one
    projection avoids it."""
    if d.kind == KIND_PAIR:
        return _split_tree(d)  # type: ignore[arg-type]
    if d.kind == KIND_MULTISET:
        tree = _candidate(d, None, rotate=True) if len(d.ground) >= 5 else None
        return tree if isinstance(tree, LabelledTree) else None
    best, fewest = None, 0
    for r in d.ground[:4] if len(d.ground) >= 4 else ():
        tree = _candidate(d, r)
        if isinstance(tree, LabelledTree):
            differ = len(_delta(d, tree))
            if best is None or differ < fewest:
                best, fewest = tree, differ
            if differ <= 1:
                break
    return best


# -- decision procedures ------------------------------------------------------------------

def decide_tree_map(d: ThreeWayMap, r: Optional[str] = None) -> ReconstructionOutcome:
    """Decide whether a plain-symbol three-way map comes from an unrooted
    labelled tree, and reconstruct the unique discriminating one if so.

    Projects through a fixed leaf r (first ground-set element by default;
    the verdict is independent of the choice), reconstructs the rooted
    two-way representation, re-attaches r, and verifies over all triples.
    """
    if d.kind != KIND_SYMBOL:
        raise MapError("decide_tree_map applies to plain-symbol maps")
    if len(d.ground) < 4:
        raise MapError("decide_tree_map needs a ground set of size at least 4")
    return _verified(d, _candidate(d, d.ground[0] if r is None else r))


def decide_ultrametric(d: ThreeWayMap) -> ReconstructionOutcome:
    """Decide whether a multiset three-way map comes from a rooted labelled
    tree, and reconstruct the unique discriminating one if so (|X| >= 5).

    Order of stages on |X| >= 5:
      1. pair recovery: one five-point combination per pair gives D(p,q); a
         combination that is not a single symbol fails at
         labelling-verification, as the map admits no pairwise labelling;
      2. BUILD on the recovered pairwise map, split on symbols without
         listing its triplets, gives the discriminating candidate;
      3. where the split fails, the triplet route names the stage: a triple
         with three distinct pair values fails at triplet-extraction, any
         other map at build;
      4. exact verification of the candidate against every triple of d
         (labelling-verification).
    Every representable verdict comes from the exact verification.  On four
    leaves the quartet machinery takes over and uniqueness may fail.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("decide_ultrametric applies to multiset maps")
    if len(d.ground) < 4:
        raise MapError("decide_ultrametric needs a ground set of size at least 4")
    if len(d.ground) == 4:
        return _decide_four_leaves(d)
    return _verified(d, _candidate(d, None))


def _decide_four_leaves(d: ThreeWayMap) -> ReconstructionOutcome:
    # Below the five-leaf guarantee: fall back on exhaustive search, and flag
    # the one pattern with multiple discriminating representations.
    from .oracle import oracle_representable_three_way

    if len(d.image_symbols()) > 3:
        # four-leaf shapes have at most three interior vertices
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_BUILD,
                                     detail="more image symbols than interior vertices")
    tree = oracle_representable_three_way(d)
    if tree is None:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_BUILD,
                                     detail="no four-leaf labelled tree matches")
    quartet = classify_quartet(d, d.ground)
    return ReconstructionOutcome(REPRESENTABLE, tree=tree,
                                 unique=(quartet.index != 3),
                                 detail=f"four-leaf pattern {quartet.index}")
