"""Triplet extraction, BUILD consistency, and tree reconstruction from maps.

Both decision procedures reduce to a two-way map and then to three-leaf
statements: extract the triplets a representing tree would have to
display, run BUILD, infer interior labels from the two-way map, and verify
the candidate exactly against the input.  Plain-symbol maps get their
two-way map by projecting through one leaf.  Multiset maps on five or more
leaves recover each pair value from one five-point combination
(conditions.pair_counts), in Theta(n^3) overall.  The final verification
is mandatory: BUILD can return a tree even when the map is not
representable.

The triplet route for multiset maps (triplets_from_three_way,
recover_two_way, is_fixed_cherry_map) extracts triplets from the
three-way values directly, by a Theta(n^4) witness search.  The decision
procedure does not use it; it stays public as an independent view of the
same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .conditions import (classify_quartet, counts_combination, counts_singleton,
                         pair_counts)
from .maps import (KIND_MULTISET, KIND_SYMBOL, MapError, ThreeWayMap, TwoWayMap,
                   farris_project, three_way_from_rooted, three_way_from_unrooted)
from .symbols import Symbol, TripleMultiset
# displayed_triplets is not called here; it stays importable from this module,
# where callers look it up as an attribute.
from .trees import (LabelledTree, PhyloTree, ROOTED, TreeBuilder, TreeError, Triplet,
                    TripletSet, collapse_to_discriminating, displayed_triplets,
                    table_triples)
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
    values; all-equal subsets emit nothing; three distinct values raise
    NotUltrametricError."""
    ground = d.ground
    n = len(ground)
    # symbols are equal exactly when their names are, and names compare in C
    table: list[list[str]] = [[""] * n for _ in range(n)]
    for (i, j), v in zip(combinations(range(n), 2), d.values):
        table[i][j] = v.name
    found = set()
    for (x, y, z), (vxy, vxz, vyz) in zip(combinations(ground, 3), table_triples(table)):
        if vxy == vxz == vyz:
            continue
        if vxz == vyz != vxy:
            found.add(Triplet.of(x, y, z))
        elif vxy == vyz != vxz:
            found.add(Triplet.of(x, z, y))
        elif vxy == vxz != vyz:
            found.add(Triplet.of(y, z, x))
        else:
            raise NotUltrametricError((x, y, z))
    return TripletSet(ground, frozenset(found))


# -- BUILD ------------------------------------------------------------------------

class _Inconsistent(Exception):
    pass


def build(triplets: Iterable[Triplet] | TripletSet,
          ground: Sequence[str]) -> Optional[PhyloTree]:
    """The BUILD consistency procedure: a rooted phylogenetic tree on the
    ground set displaying every input triplet, or None when none exists.

    Recursion: connect x,y for every triplet xy|z whose three leaves lie in
    the current set, recurse on the connected components, and fail when the
    set does not split.  One child per component, in ground-set order of
    their first leaves, so the result is the minimally resolved consistent
    tree.  Triplets are encoded once as ground-set indices, and each level
    hands a triplet down only to the component holding all three of its
    leaves; the others are resolved there for good.  The total work is the
    sum of the level sizes, not the depth times the number of triplets.
    """
    ground = tuple(ground)
    pos = {name: i for i, name in enumerate(ground)}
    coded = []
    for t in triplets:
        a, b = t.cherry
        try:
            coded.append((pos[a], pos[b], pos[t.outlier]))
        except KeyError:
            raise TreeError(f"triplet {t!r} uses names outside the ground set") from None
    builder = TreeBuilder()
    uf = list(range(len(ground)))
    comp_of = [0] * len(ground)

    def find(a: int) -> int:
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def rec(leaves: list[int], here: list[tuple[int, int, int]]) -> int:
        if len(leaves) == 1:
            return builder.add_vertex(ground[leaves[0]])
        for a in leaves:
            uf[a] = a
        for a, b in {(a, b) for a, b, _ in here}:
            uf[find(a)] = find(b)
        comps: dict[int, list[int]] = {}
        for a in leaves:
            comps.setdefault(find(a), []).append(a)
        if len(comps) == 1:
            raise _Inconsistent
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
        v = builder.add_vertex()
        for comp, sub in zip(parts, below):
            builder.add_edge(v, rec(comp, sub))
        return v

    if len(ground) < 2:
        raise TreeError("BUILD needs at least two leaves")
    try:
        root = rec(list(range(len(ground))), coded)
    except _Inconsistent:
        return None
    return builder.tree(ROOTED, root=root, leaf_order=ground)


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
    table: dict[frozenset, Symbol] = {}
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
            elif t.cherry == frozenset((x, y)):
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
        table[frozenset((x, y))] = candidate  # type: ignore[assignment]
    return TwoWayMap.from_pairs(d.ground, table, d.symbols)


def _recover_two_way_by_five_points(d: ThreeWayMap) -> TwoWayMap:
    """Recover the pairwise map of a multiset map on |X| >= 5 with one
    five-point combination per pair: {p,q} plus the first three other
    ground leaves.  A representable map yields its true pair value from
    every 5-subset; a combination that is not a single symbol raises
    PairContradictionError, naming the pair, the 5-subset and the
    combination."""
    ground = d.ground
    values = []
    for p, q in combinations(ground, 2):
        e, f, g = [n for n in ground[:5] if n != p and n != q][:3]
        counts = pair_counts(d, p, q, e, f, g)
        sym = counts_singleton(counts)
        if sym is None:
            five = [n for n in ground if n in (p, q, e, f, g)]
            raise PairContradictionError(
                (p, q), f"combination over ({','.join(five)}) is "
                        f"{counts_combination(counts).text()}, not a single symbol")
        values.append(sym)
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


# -- label inference --------------------------------------------------------------------

def _label_tree_from_two_way(shape: PhyloTree, d2: TwoWayMap) -> Optional[LabelledTree]:
    """Label each interior vertex with the pair value shared by all leaf pairs
    whose lca it is; None on any conflict."""
    lca = shape.leaf_lca_table()
    index = {name: i for i, name in enumerate(shape.leaf_order)}
    labels: dict[int, Symbol] = {}
    for (x, y), val in d2.pairs():
        v = lca[index[x]][index[y]]
        if v in labels:
            if labels[v] != val:
                return None
        else:
            labels[v] = val
    if set(labels) != set(shape.interior_vertices()):
        return None
    return LabelledTree(shape, labels, d2.symbols)


def _tree_from_two_way(d2: TwoWayMap, source: str) -> LabelledTree | ReconstructionOutcome:
    """Triplets, BUILD and labelling of a two-way map: the labelled rooted
    tree, or the negative outcome of the first stage that fails."""
    try:
        trips = triplets_from_two_way(d2)
    except NotUltrametricError as err:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_TRIPLETS,
                                     detail=str(err))
    shape = build(trips, d2.ground)
    if shape is None:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_BUILD,
                                     detail="triplets are not displayed by any tree")
    labelled = _label_tree_from_two_way(shape, d2)
    if labelled is None:
        return ReconstructionOutcome(
            NOT_REPRESENTABLE, failure_stage=STAGE_LABELS,
            detail=f"no interior labelling matches the {source}")
    return labelled


# -- decision procedures ------------------------------------------------------------------

def decide_tree_map(d: ThreeWayMap, r: Optional[str] = None,
                    check_all_leaves: bool = False) -> ReconstructionOutcome:
    """Decide whether a plain-symbol three-way map comes from an unrooted
    labelled tree, and reconstruct the unique discriminating one if so.

    Projects through a fixed leaf r (first ground-set element by default;
    the verdict is independent of the choice), reconstructs the rooted
    two-way representation, re-attaches r, and verifies over all triples.
    check_all_leaves re-runs the procedure through every leaf and insists
    the outcomes agree, as a self-check.
    """
    if d.kind != KIND_SYMBOL:
        raise MapError("decide_tree_map applies to plain-symbol maps")
    if len(d.ground) < 4:
        raise MapError("decide_tree_map needs a ground set of size at least 4")
    if check_all_leaves:
        outcomes = [decide_tree_map(d, leaf) for leaf in d.ground]
        first = outcomes[0]
        for other in outcomes[1:]:
            same = other.verdict == first.verdict
            if same and first.tree is not None:
                from .trees import labelled_isomorphic

                same = labelled_isomorphic(other.tree, first.tree)
            if not same:
                raise MapError("projection leaves disagree; internal inconsistency")
        return first
    if r is None:
        r = d.ground[0]
    rooted = _tree_from_two_way(farris_project(d, r), "projected map")
    if isinstance(rooted, ReconstructionOutcome):
        return rooted
    candidate = collapse_to_discriminating(farris_inverse(rooted, r))
    if three_way_from_unrooted(candidate) == d:
        return ReconstructionOutcome(REPRESENTABLE, tree=candidate, unique=True)
    return ReconstructionOutcome(
        NOT_REPRESENTABLE, failure_stage=STAGE_LABELS,
        detail="candidate tree does not reproduce the map on all triples")


def decide_ultrametric(d: ThreeWayMap) -> ReconstructionOutcome:
    """Decide whether a multiset three-way map comes from a rooted labelled
    tree, and reconstruct the unique discriminating one if so (|X| >= 5).

    Order of stages on |X| >= 5:
      1. pair recovery: one five-point combination per pair gives D(p,q); a
         combination that is not a single symbol fails at
         labelling-verification, as the map admits no pairwise labelling;
      2. triplet extraction from the recovered pairwise map (a triple with
         three distinct pair values fails here);
      3. BUILD;
      4. labelling of the BUILD tree from the recovered pairwise map;
      5. collapse to the discriminating tree and exact verification of the
         candidate against every triple of d (labelling-verification).
    Every representable verdict comes from the exact verification.  On four
    leaves the quartet machinery takes over and uniqueness may fail.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("decide_ultrametric applies to multiset maps")
    if len(d.ground) < 4:
        raise MapError("decide_ultrametric needs a ground set of size at least 4")
    if len(d.ground) == 4:
        return _decide_four_leaves(d)
    try:
        pairwise = _recover_two_way_by_five_points(d)
    except PairContradictionError as err:
        return ReconstructionOutcome(NOT_REPRESENTABLE, failure_stage=STAGE_LABELS,
                                     detail=str(err))
    labelled = _tree_from_two_way(pairwise, "recovered pairwise map")
    if isinstance(labelled, ReconstructionOutcome):
        return labelled
    candidate = collapse_to_discriminating(labelled)
    if three_way_from_rooted(candidate) == d:
        return ReconstructionOutcome(REPRESENTABLE, tree=candidate, unique=True)
    return ReconstructionOutcome(
        NOT_REPRESENTABLE, failure_stage=STAGE_LABELS,
        detail="candidate tree does not reproduce the map on all triples")


def _decide_four_leaves(d: ThreeWayMap) -> ReconstructionOutcome:
    # Below the five-leaf guarantee: fall back on exhaustive search, and flag
    # the one pattern with multiple discriminating representations.
    from .oracle import oracle_representable_three_way

    if len({s.name for s in d.image_symbols()}) > 3:
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
