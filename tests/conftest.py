"""Shared fixtures: the running example trees, the golden negative maps, and
small construction helpers."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement
from typing import Optional

import pytest

from trisym import (
    KIND_MULTISET,
    KIND_SYMBOL,
    MapError,
    Symbol,
    SymbolTable,
    ThreeWayMap,
    TripleMultiset,
    check_three_way_ultrametric,
    parse_multiset,
    parse_newick,
)


def multiset_map(ground, rows, table):
    """Build a multiset three-way map from {'xyz': '2A+B'} style rows."""
    vals = {frozenset(k): parse_multiset(v, table) for k, v in rows.items()}
    return ThreeWayMap.from_triples(KIND_MULTISET, ground, vals, table)


def plain_map(ground, rows, table):
    vals = {frozenset(k): table.intern(v) for k, v in rows.items()}
    return ThreeWayMap.from_triples(KIND_SYMBOL, ground, vals, table)


def constant_multiset_map(ground, text, table):
    value = parse_multiset(text, table)
    vals = {frozenset(t): value for t in combinations(ground, 3)}
    return ThreeWayMap.from_triples(KIND_MULTISET, ground, vals, table)


def multiset_alphabet(table):
    """All size-3 multisets over the table's symbols, in a fixed order."""
    return [TripleMultiset.of(*c) for c in combinations_with_replacement(list(table), 3)]


def random_multiset_map(ground, table, rng: random.Random):
    alphabet = multiset_alphabet(table)
    vals = {frozenset(t): rng.choice(alphabet) for t in combinations(ground, 3)}
    return ThreeWayMap.from_triples(KIND_MULTISET, ground, vals, table)


def random_plain_map(ground, table, rng: random.Random):
    syms = list(table)
    vals = {frozenset(t): rng.choice(syms) for t in combinations(ground, 3)}
    return ThreeWayMap.from_triples(KIND_SYMBOL, ground, vals, table)


def counts_are_valid(counts: dict[Symbol, int]) -> bool:
    """True iff counts / 6 has non-negative integer coefficients."""
    return all(c >= 0 and c % 6 == 0 for c in counts.values())


def counts_singleton(counts: dict[Symbol, int]) -> Optional[Symbol]:
    """The symbol s when counts are exactly {s: 6}, i.e. counts / 6 is that
    single symbol; otherwise None."""
    if len(counts) == 1:
        (sym, c), = counts.items()
        if c == 6:
            return sym
    return None


def ultrametric_by_five_subsets(d: ThreeWayMap) -> bool:
    """True iff every 5-subset restriction satisfies the P conditions; for
    |X| >= 5 this is equivalent to representability of the whole map."""
    from trisym.maps import restrict

    if len(d.ground) < 5:
        raise MapError("the five-subset test needs a ground set of size at least 5")
    for five in combinations(d.ground, 5):
        if check_three_way_ultrametric(restrict(d, five), stop_after=1):
            return False
    return True


@pytest.fixture
def ab_table():
    return SymbolTable(["A", "B"])


@pytest.fixture
def abc_table():
    return SymbolTable(["A", "B", "C"])


@pytest.fixture
def five_leaf_unrooted(ab_table):
    """The running unrooted example: a two-cherry caterpillar on five leaves."""
    return parse_newick("unrooted", "((1,2)B,3,(4,5)B)A;", ab_table)


@pytest.fixture
def five_leaf_rooted(ab_table):
    """The running rooted example: two labelled cherries plus a free leaf."""
    return parse_newick("rooted", "((1,2)B,(3,4)B,5)A;", ab_table)


# The seven discriminating labelled rooted trees on four leaves, up to
# relabelling leaves and renaming symbols, and the triple values each induces
# on (1,2,3), (1,2,4), (1,3,4), (2,3,4).
QUARTET_NEWICKS = {
    1: "(1,2,3,4)A;",
    2: "((1,2)B,3,4)A;",
    3: "((1,2)B,(3,4)B)A;",
    4: "((1,2)B,(3,4)C)A;",
    5: "((1,2,3)B,4)A;",
    6: "(((1,2)A,3)B,4)A;",
    7: "(((1,2)C,3)B,4)A;",
}

QUARTET_VALUES = {
    1: ("3A", "3A", "3A", "3A"),
    2: ("2A+B", "2A+B", "3A", "3A"),
    3: ("2A+B", "2A+B", "2A+B", "2A+B"),
    4: ("2A+B", "2A+B", "2A+C", "2A+C"),
    5: ("3B", "2A+B", "2A+B", "2A+B"),
    6: ("A+2B", "3A", "2A+B", "2A+B"),
    7: ("2B+C", "2A+C", "2A+B", "2A+B"),
}


@pytest.fixture
def quartet_trees(abc_table):
    return {i: parse_newick("rooted", nwk, abc_table)
            for i, nwk in QUARTET_NEWICKS.items()}


@pytest.fixture
def locally_consistent_map(ab_table):
    """Unrepresentable on five leaves although every 4-subset restriction is
    representable; the canonical witness that four-point consistency is not
    enough."""
    rows = {
        "123": "2A+B", "124": "2A+B", "125": "3B", "134": "3A", "135": "2A+B",
        "145": "2A+B", "234": "3A", "235": "2A+B", "245": "2A+B", "345": "A+2B",
    }
    return multiset_map(tuple("12345"), rows, ab_table)


@pytest.fixture
def block_value_map(ab_table):
    """3A on the block {3,4,5} and 2A+B elsewhere: consistent triplets, a
    BUILD tree, but no labelling; the caveat for triplet-only reasoning."""
    rows = {}
    for t in combinations("12345", 3):
        rows["".join(t)] = "3A" if set(t) == {"3", "4", "5"} else "2A+B"
    return multiset_map(tuple("12345"), rows, ab_table)


def caterpillar_text(n, flavor):
    """A caterpillar on leaves 1..n in tree-file form, labelled A and B in
    turn up its spine so that it is discriminating.  Rooted, it reads
    ((...((1,2)A,3)B,...),n); unrooted, the spine stops at n-2 and its top
    vertex also holds n-1 and n.  Depth grows with n, so this probes
    recursion limits."""
    m = n if flavor == "rooted" else n - 2
    spine = "(" * (m - 1) + "1" + "".join(f",{k}){'AB'[k % 2]}" for k in range(2, m + 1))
    if flavor == "unrooted":
        spine = f"({spine},{n - 1},{n}){'AB'[(m + 1) % 2]}"
    return f"{flavor}\n{spine};\n"


def pivot_leaf_map(n, table):
    """Plain-symbol map sending a triple to A iff it contains leaf 1.

    Fails the four-point condition at {1,2,3,4}, yet every projection
    through a single leaf is a two-way ultrametric.
    """
    ground = tuple(str(i + 1) for i in range(n))
    a, b = table.intern("A"), table.intern("B")
    vals = {frozenset(t): (a if "1" in t else b) for t in combinations(ground, 3)}
    return ThreeWayMap.from_triples(KIND_SYMBOL, ground, vals, table)


@pytest.fixture
def p1_independence_map(ab_table):
    """Constant 2A+B on five leaves: the five-point validity condition fails
    while the two-distinct-symbols and majority-agreement conditions hold."""
    return constant_multiset_map(tuple("12345"), "2A+B", ab_table)


@pytest.fixture
def p2_independence_map(abc_table):
    """Assembled from a pairwise map with one three-colored triangle: the
    five-point combinations stay valid and majority agreement holds, but one
    value has three distinct symbols."""
    from trisym import TwoWayMap, three_way_from_two_way

    a, b, c = (abc_table.intern(n) for n in "ABC")
    pairs = {frozenset(p): a for p in combinations("12345", 2)}
    pairs[frozenset(("1", "3"))] = b
    pairs[frozenset(("2", "3"))] = c
    return three_way_from_two_way(
        TwoWayMap.from_pairs(tuple("12345"), pairs, abc_table))


@pytest.fixture
def p3_independence_map(ab_table):
    """Assembled from a pairwise map realizing the forbidden alternating
    four-point pattern: combinations stay valid and every value has at most
    two symbols, but majority agreement breaks on {1,2,3,4}."""
    from trisym import TwoWayMap, three_way_from_two_way

    a, b = ab_table.intern("A"), ab_table.intern("B")
    pairs = {frozenset(p): a for p in combinations("12345", 2)}
    for p in (("1", "3"), ("1", "4"), ("2", "4")):
        pairs[frozenset(p)] = b
    return three_way_from_two_way(
        TwoWayMap.from_pairs(tuple("12345"), pairs, ab_table))


@pytest.fixture
def set_ambiguous_pair(ab_table):
    """Two discriminating rooted trees on five leaves whose set-valued triple
    maps coincide while the multiset maps differ: the reason the codomain is
    multisets."""
    left = parse_newick("rooted", "(1,(2,3,4,5)B)A;", ab_table)
    right = parse_newick("rooted", "(2,(1,(3,4,5)B)A)B;", ab_table)
    return left, right
