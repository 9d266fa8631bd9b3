"""End-to-end reconstruction: pair values, triplets, BUILD, labelling,
verification.

The decision procedures recover a pairwise map (for multiset maps, one
five-point combination per pair), split it on symbols into a candidate
tree, and verify the candidate exactly.  The paper's route from three-leaf
statements through BUILD stays public; the final check matters, because a
consistent triplet set does not by itself certify representability.
"""

from itertools import combinations

from trisym import (
    SymbolTable,
    build,
    decide_tree_map,
    decide_ultrametric,
    labelled_isomorphic,
    parse_multiset,
    parse_newick,
    three_way_from_rooted,
    three_way_from_unrooted,
    tree_to_text,
    triplets_from_three_way,
)
from trisym.maps import KIND_MULTISET, ThreeWayMap

# Round trip: map out of a rooted tree, tree back out of the map.
original = parse_newick("rooted", "((1,2)B,(3,4)B,5)A;")
outcome = decide_ultrametric(three_way_from_rooted(original))
print("verdict:", outcome.verdict)
print("tree recovered up to isomorphism:",
      labelled_isomorphic(outcome.tree, original))
print(tree_to_text(outcome.tree))

# Same story for an unrooted tree through any projection leaf.
unrooted = parse_newick("unrooted", "((1,2)B,3,(4,5)B)A;")
d = three_way_from_unrooted(unrooted)
for r in d.ground:
    out = decide_tree_map(d, r)
    assert out.representable and labelled_isomorphic(out.tree, unrooted)
print("unrooted round trip holds for every projection leaf")

# The cautionary example: consistent triplets, no tree.  Value 3A on the
# block {3,4,5} and 2A+B everywhere else.  The triplet route extracts a
# consistent triplet set and BUILD accepts it; the decision procedure
# rejects at labelling, because the five-point combination for pair (1,3)
# is (1/2)A+(1/2)B, which no pairwise labelling can produce.
table = SymbolTable(["A", "B"])
ground = tuple("12345")
values = {
    frozenset(t): parse_multiset("3A" if set(t) == {"3", "4", "5"} else "2A+B", table)
    for t in combinations(ground, 3)
}
caveat = ThreeWayMap.from_triples(KIND_MULTISET, ground, values, table)

triplets = triplets_from_three_way(caveat)
print()
print("extracted triplets:", sorted(map(repr, triplets)))
print("BUILD finds a tree displaying them:",
      build(triplets, ground) is not None)
out = decide_ultrametric(caveat)
print("final verdict:", out.verdict, "| failed at:", out.failure_stage)
print("detail:", out.detail)
