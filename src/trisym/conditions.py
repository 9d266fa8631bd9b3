"""k-point condition checkers for symbolic maps.

Condition families, named after the arity pattern they constrain:

  U1/U2 -- two-way maps; clean exactly when the map comes from lca labels
           of a rooted labelled tree.
  M1/M2 -- plain-symbol three-way maps; clean exactly when the map comes
           from median labels of an unrooted labelled tree.
  P1/P2/P3 -- multiset three-way maps; clean exactly when the map comes
           from the three pairwise lca labels of a rooted labelled tree
           (ground sets of size five or more).

Checkers report every violation with its witness subset rather than a bare
boolean, so reports can be printed or serialized for diagnostics.  Subsets
are scanned in lexicographic rank order over the ground set, which makes the
first witness deterministic.

Every checker can be given a labelled tree T on the map's ground (near).
Every tree's map satisfies every condition on every subset, so a subset on
which the map agrees with T's map holds no violation: only the subsets
holding a pair or triple of Delta, where the two maps differ, are scanned,
and the violations come out the same and in the same order.  Any tree is
sound; a tree close to the map makes Delta small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, permutations
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .maps import (KIND_MULTISET, KIND_SYMBOL, MapError, ThreeWayMap, TwoWayMap,
                   _rank_offsets, three_way_from_rooted, three_way_from_unrooted,
                   two_way_from_tree)
from .symbols import Symbol, SymbolCombination, SymbolTable, TripleMultiset, parse_multiset
from .trees import LabelledTree

U1, U2, M1, M2, P1, P2, P3 = "U1", "U2", "M1", "M2", "P1", "P2", "P3"


@dataclass(frozen=True)
class Violation:
    """One failed condition instance: the condition tag, the offending leaf
    tuple, and a human-readable detail line."""

    kind: str
    witness: tuple[str, ...]
    detail: str

    def text(self) -> str:
        return f"{self.kind} at ({','.join(self.witness)}): {self.detail}"


# -- pattern helpers -----------------------------------------------------------

def _pi_pattern(value: Callable[[str, str], object], quad: Sequence[str]) -> Optional[tuple]:
    """Search the 4! role assignments for D(x,y)=D(y,z)=D(z,u) != D(z,x)=D(x,u)=D(u,y).

    Returns the witnessing ordering or None.  The two value classes then each
    form a path through all four elements.
    """
    for x, y, z, u in permutations(quad):
        a = value(x, y)
        if value(y, z) != a or value(z, u) != a:
            continue
        b = value(z, x)
        if b == a:
            continue
        if value(x, u) == b and value(u, y) == b:
            return (x, y, z, u)
    return None


# -- two-way maps: U1 / U2 -----------------------------------------------------

def check_ultrametric(d: TwoWayMap, stop_after: Optional[int] = None,
                      near: Optional[LabelledTree] = None) -> list[Violation]:
    """All U1/U2 violations, or the first stop_after of them; empty exactly
    when d is representable by lca labels of a rooted labelled tree.  Given
    a rooted labelled tree near on d's ground, only the subsets where d
    differs from its map are scanned, with the same result."""
    return list(islice(_violations(d, _delta(d, near), _U_FAMILIES), stop_after or None))


def _u1_violation(key: tuple[Symbol, Symbol, Symbol]) -> Optional[str]:
    xy, xz, yz = key
    return (f"three pairwise distinct values {xy.name},{xz.name},{yz.name}"
            if xy != xz != yz != xy else None)


def _u2_violation(d: TwoWayMap, quad: Sequence[str]) -> Optional[str]:
    hit = _pi_pattern(d.value, quad)
    if hit is None:
        return None
    x, y, z, u = hit
    return (f"D({x},{y})=D({y},{z})=D({z},{u})={d.value(x, y).name} but "
            f"D({z},{x})=D({x},{u})=D({u},{y})={d.value(z, x).name}")


# -- plain-symbol three-way maps: M1 / M2 --------------------------------------

def check_tree_map(d: ThreeWayMap, stop_after: Optional[int] = None,
                   near: Optional[LabelledTree] = None) -> list[Violation]:
    """All M1/M2 violations, or the first stop_after of them; empty exactly
    when d is representable by median labels of an unrooted labelled tree
    (ground set of size at least 4).  Given an unrooted labelled tree near
    on d's ground, only the subsets where d differs from its map are
    scanned, with the same result."""
    if d.kind != KIND_SYMBOL:
        raise MapError("M conditions apply to plain-symbol three-way maps")
    if len(d.ground) < 4:
        raise MapError("M conditions need a ground set of size at least 4")
    return list(islice(_violations(d, _delta(d, near), _M_FAMILIES), stop_after or None))


def _m1_violation(key: tuple[Symbol, Symbol, Symbol, Symbol]) -> Optional[str]:
    if sorted(key.count(v) for v in set(key)) in ([4], [2, 2]):
        return None
    return (f"triple values {','.join(v.name for v in key)} "
            "split neither all-equal nor two-and-two")


def _m2_violation(d: ThreeWayMap, five: Sequence[str]) -> Optional[str]:
    for v in five:
        rest = tuple(n for n in five if n != v)
        hit = _pi_pattern(lambda a, b: d.value(v, a, b), rest)
        if hit is not None:
            return (f"slice through {v} realizes the forbidden alternating pattern "
                    f"on ({','.join(hit)})")
    return None


# -- slot keys -----------------------------------------------------------------

# A slot's key is its value.  _scan reads a k-subset's key as
# table[s[i]][s[j]][s[m]] for each (i, j, m) of _SUBSET_SLOTS[arity][k]: its
# triples in combinations order (for k = 5 the column order of the five-point
# system below), or in a pair map, whose table repeats one pair table per
# position, (0, i, j) for each pair i < j.
_SUBSET_TRIPLES = {k: tuple(combinations(range(k), 3)) for k in (3, 4, 5)}
_SUBSET_SLOTS = {3: _SUBSET_TRIPLES,
                 2: {k: tuple((0, i, j) for i, j in combinations(range(k), 2)) for k in (3, 4)}}


def _digits(symbols: Iterable[Symbol]) -> dict[Symbol, int]:
    """Each symbol's base-64 digit, 1 << 6*i for the i-th in name order,
    keyed in that order.  A multiset's code is the sum of its entries'
    digits; P1 and five-point pair recovery compute on codes."""
    return {s: 1 << 6 * i for i, s in enumerate(sorted(symbols, key=lambda s: s.name))}


def _value_codes(d: ThreeWayMap) -> tuple[list[int], dict[Symbol, int]]:
    """The code of every slot of a multiset map d in combinations order, and
    the digit of each image symbol.  Each distinct value is coded once."""
    digit = _digits(d.image_symbols())
    code = {v: sum(map(digit.__getitem__, v.entries))  # type: ignore[union-attr]
            for v in set(d.values)}
    return list(map(code.__getitem__, d.values)), digit


def _slot_codes(d: ThreeWayMap | TwoWayMap) -> list:
    """The key of every slot as table[a][b][c] for positions a < b < c (a
    pair map's b < c for any a): one reference per slot, however many
    symbols the map has.  The checkers skip it when Delta is empty, as no
    subset is then read."""
    n = len(d.ground)
    if isinstance(d, TwoWayMap):
        return [d._pair_table()] * n
    first, second = _rank_offsets(n, 3)
    return [[(None,) * (b + 1) + d.values[first[a] - second[b] + b + 1:first[a] - second[b] + n]
             if b > a else None for b in range(n)] for a in range(n)]


def _delta(d: ThreeWayMap | TwoWayMap, near: Optional[LabelledTree]) -> Optional[list[tuple]]:
    """Delta: the position pairs or triples, in combinations order, whose
    value in d differs from the one in near's map laid out over d.ground;
    None without near."""
    if near is None:
        return None
    construct = (two_way_from_tree if isinstance(d, TwoWayMap) else
                 three_way_from_rooted if d.kind == KIND_MULTISET else three_way_from_unrooted)
    values = construct(near, d.ground).values
    return [s for s, a, b in zip(combinations(range(len(d.ground)), d._k), d.values, values)
            if a != b]


def _subsets(n: int, k: int, delta: Optional[list[tuple]]) -> Iterable[tuple]:
    """The k-subsets of range(n) to scan, in combinations order: those that
    hold a pair or triple t of delta, or all of them without delta or where
    delta's |delta| * C(n-|t|, k-|t|) subsets could number C(n, k) or more."""
    t = len(delta[0]) if delta else 0
    if delta is None or len(delta) * comb(n - t, k - t) >= comb(n, k):
        return combinations(range(n), k)
    return _holding(n, k, delta)


def _holding(n: int, k: int, delta: list[tuple]) -> list[tuple]:
    """The k-subsets of range(n) that hold a pair or triple of delta, in
    combinations order."""
    held = set()
    for t in delta:
        rest = [i for i in range(n) if i not in t]
        held.update(tuple(sorted(t + r)) for r in combinations(rest, k - len(t)))
    return sorted(held)


def _scan(d: ThreeWayMap | TwoWayMap, table: list, k: int, subsets: Iterable[tuple],
          test: Callable) -> Iterator[tuple]:
    """(subset, fault) for each k-subset of d.ground among subsets (position
    tuples in combinations order) on which test(subset, key) returns a
    fault: a detail, or a list of them, rather than None or [].

    The keys of the subsets that came out clean are remembered for this
    scan, and a repeat is skipped: every family's verdict depends only on
    the values at the subset's rank positions.
    """
    seen: set[tuple] = set()
    ground, slots = d.ground, _SUBSET_SLOTS[d._k][k]
    for s in subsets:
        key = tuple([table[s[i]][s[j]][s[m]] for i, j, m in slots])
        if key not in seen:
            subset = tuple([ground[i] for i in s])
            fault = test(subset, key)
            if fault:
                yield subset, fault
            else:
                seen.add(key)


# Per kind, each family's tag, subset size, and a factory making its _scan
# test from the map; the factories look the tests up by name when a scan
# starts.
_U_FAMILIES = ((U1, 3, lambda d: lambda triple, key: _u1_violation(key)),
               (U2, 4, lambda d: lambda quad, key: _u2_violation(d, quad)))
_M_FAMILIES = ((M1, 4, lambda d: lambda quad, key: _m1_violation(key)),
               (M2, 5, lambda d: lambda five, key: _m2_violation(d, five)))
_P_FAMILIES = ((P1, 5, lambda d: _p1_details(d)),
               (P2, 3, lambda d: lambda triple, key: _p2_violation(d, triple)),
               (P3, 4, lambda d: lambda quad, key: _p3_detail(d, quad, key)))


def _violations(d: ThreeWayMap | TwoWayMap, delta: Optional[list[tuple]],
                families: tuple) -> Iterator[Violation]:
    """Each family's violations in turn, over the subsets _subsets gives; a
    test's fault is one detail or a list of them.  The slot keys are laid
    out only when some subset may be read."""
    table = _slot_codes(d) if delta != [] else []
    n = len(d.ground)
    for tag, k, test in families:
        for witness, fault in _scan(d, table, k, _subsets(n, k, delta), test(d)):
            for detail in [fault] if isinstance(fault, str) else fault:
                yield Violation(tag, witness, detail)


# -- the five-point linear system ----------------------------------------------

# Row order: pairs of {x,y,z,u,v} in lexicographic order
#   (x,y),(x,z),(x,u),(x,v),(y,z),(y,u),(y,v),(z,u),(z,v),(u,v);
# column order: triples in lexicographic order
#   (x,y,z),(x,y,u),(x,y,v),(x,z,u),(x,z,v),(x,u,v),(y,z,u),(y,z,v),(y,u,v),(z,u,v).
# TRIPLE_OF_PAIRS expresses each triple value as the sum of its three pair
# values: 1 where the triple holds the pair.  PAIR_OF_TRIPLES is its exact
# inverse, entries times 1/6: 2 where the triple holds both or neither of the
# pair, -1 where it holds one of them.

_PAIRS = tuple(combinations(range(5), 2))
TRIPLE_OF_PAIRS: tuple[tuple[int, ...], ...] = tuple(
    tuple(int(set(p) <= set(t)) for p in _PAIRS) for t in _SUBSET_TRIPLES[5])
PAIR_OF_TRIPLES_NUMERATORS: tuple[tuple[int, ...], ...] = tuple(
    tuple(-1 if len(set(p) & set(t)) == 1 else 2 for t in _SUBSET_TRIPLES[5])
    for p in _PAIRS)
PAIR_OF_TRIPLES: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(n, 6) for n in row) for row in PAIR_OF_TRIPLES_NUMERATORS
)


def pair_counts(d: ThreeWayMap, p: str, q: str, e: str, f: str, g: str) -> dict[Symbol, int]:
    """The five-point pair combination for {p,q} over {p,q,e,f,g}, scaled by 6:

        2*[d(p,q,e) + d(p,q,f) + d(p,q,g) + d(e,f,g)]
          - sum over pairs {a,b} of {e,f,g} of [d(p,a,b) + d(q,a,b)]

    as integer counts per symbol, zero counts dropped.  This is the
    PAIR_OF_TRIPLES_NUMERATORS row of the pair applied to the ten triple
    values.  The counts always sum to 6.  No argument checks: callers pass
    five distinct names of a multiset map.
    """
    value = d.value
    plus = (value(p, q, e), value(p, q, f), value(p, q, g), value(e, f, g))
    minus = (value(p, e, f), value(p, e, g), value(p, f, g),
             value(q, e, f), value(q, e, g), value(q, f, g))
    counts: dict[Symbol, int] = {}
    for v in plus:
        for s in v.entries:  # type: ignore[union-attr]
            counts[s] = counts.get(s, 0) + 2
    for v in minus:
        for s in v.entries:  # type: ignore[union-attr]
            counts[s] = counts.get(s, 0) - 1
    return {s: c for s, c in counts.items() if c}


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


def counts_combination(counts: dict[Symbol, int]) -> SymbolCombination:
    """The rational combination counts / 6."""
    return SymbolCombination({s: Fraction(c, 6) for s, c in counts.items()})


def pair_combination(d: ThreeWayMap, five: Sequence[str], p: str, q: str) -> SymbolCombination:
    """The rational combination over a 5-subset that recovers the pair value:
    pair_counts divided by 6.  For maps that come from a rooted labelled
    tree this is always the singleton {D(p,q)}.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("pair combinations apply to multiset three-way maps")
    five = tuple(five)
    if len(set(five)) != 5:
        raise MapError("pair_combination needs five distinct names")
    if p == q or p not in five or q not in five:
        raise MapError("p and q must be distinct members of the 5-subset")
    e, f, g = [n for n in five if n not in (p, q)]
    return counts_combination(pair_counts(d, p, q, e, f, g))


class FivePointSystem:
    """The linear system tying the ten triple values over a 5-subset to the
    ten pair values of a two-way map assembling them."""

    matrix = TRIPLE_OF_PAIRS
    inverse = PAIR_OF_TRIPLES

    def __init__(self, d: ThreeWayMap, five: Sequence[str]):
        if d.kind != KIND_MULTISET:
            raise MapError("five-point systems apply to multiset maps")
        self.five = tuple(five)
        if len(set(self.five)) != 5:
            raise MapError("a five-point system needs five distinct names")
        self.triple_order = tuple(combinations(self.five, 3))
        self.pair_order = tuple(combinations(self.five, 2))
        self.triple_values: tuple[TripleMultiset, ...] = tuple(
            d.value(*t) for t in self.triple_order)  # type: ignore[misc]

    def pair_combinations(self) -> list[SymbolCombination]:
        """The matrix route: apply the inverse to the triple-value vector."""
        out = []
        for row in self.inverse:
            acc = SymbolCombination.zero()
            for coef, ms in zip(row, self.triple_values):
                acc = acc + SymbolCombination.from_multiset(ms).scaled(coef)
            out.append(acc)
        return out

    def pair_symbols(self) -> list[Optional[Symbol]]:
        """Per pair, the recovered symbol when the combination is a valid
        singleton, else None."""
        return [c.singleton() if c.is_valid() else None
                for c in self.pair_combinations()]


# -- multiset three-way maps: P1 / P2 / P3 --------------------------------------

def check_three_way_ultrametric(d: ThreeWayMap, stop_after: Optional[int] = None,
                                near: Optional[LabelledTree] = None) -> list[Violation]:
    """All P1/P2/P3 violations, or the first stop_after of them; empty
    exactly when d is representable by the pairwise lca-label multisets of
    a rooted labelled tree (|X| >= 5).  Given a rooted labelled tree near
    on d's ground, only the subsets where d differs from its map are
    scanned, with the same result."""
    if d.kind != KIND_MULTISET:
        raise MapError("P conditions apply to multiset three-way maps")
    if len(d.ground) < 5:
        raise MapError("P conditions need a ground set of size at least 5")
    return list(islice(_violations(d, _delta(d, near), _P_FAMILIES), stop_after or None))


def _p2_violation(d: ThreeWayMap, triple: Sequence[str]) -> Optional[str]:
    v: TripleMultiset = d.value(*triple)  # type: ignore[assignment]
    return f"value {v.text()} has three distinct symbols" if len(v.support) > 2 else None


# Per pair row of the five-point system, the columns with coefficient +2.
_PLUS_COLUMNS = tuple(tuple(j for j, c in enumerate(row) if c == 2)
                      for row in PAIR_OF_TRIPLES_NUMERATORS)


def _pair_codes(codes: Sequence[int]) -> list[int]:
    """Per pair row, pair_counts as one packed code from the ten triple codes
    of a 5-subset: 2*(sum of the row's +2 columns) - (sum of the rest) =
    3*(sum of the +2 columns) - total.
    Every digit lies in [-18, 24], so the code fixes the counts, and as the
    counts sum to 6 they are valid exactly when the code is 6 times a digit."""
    total = sum(codes)
    return [3 * (codes[i] + codes[j] + codes[k] + codes[m]) - total
            for i, j, k, m in _PLUS_COLUMNS]


def _p1_details(d: ThreeWayMap) -> Callable:
    """P1's test for _scan: the detail line of every pair of a 5-subset
    whose packed code is not a single symbol's.  The subset's ten values
    are packed by their entries' digits, each distinct value once per scan.
    A pair's code has digits in [-18, 24], which decode as balanced base-64
    digits into the pair's counts, and each distinct code's text is made
    once per scan."""
    digit = _digits(d.image_symbols())
    singles = {6 * g for g in digit.values()}
    codes: dict[TripleMultiset, int] = {}
    texts: dict[int, str] = {}

    def pack(v: TripleMultiset) -> int:
        if v not in codes:
            codes[v] = sum(map(digit.__getitem__, v.entries))
        return codes[v]

    def text(code: int) -> str:
        if code not in texts:
            counts, rest = {}, code
            for s in digit:
                g = (rest + 31) % 64 - 31
                counts[s] = g
                rest = (rest - g) >> 6
            texts[code] = counts_combination(counts).text()
        return texts[code]

    def details(five: tuple[str, ...], key: tuple) -> list[str]:
        return [f"combination for pair ({p},{q}) is {text(code)}"
                for (p, q), code in zip(combinations(five, 2), _pair_codes(list(map(pack, key))))
                if code not in singles]

    return details


def _p3_detail(d: ThreeWayMap, quad: tuple[str, ...], key: tuple) -> Optional[str]:
    """P3's test for _scan: _p3_violation's detail for a 4-subset whose four
    values show a violation, else None.  One shows exactly when a split of
    the values into two pairs has equal values within each pair and two
    majority symbols that both exist and differ."""
    a, b, c, e = key
    for p, q, r, s in ((a, b, c, e), (a, c, b, e), (a, e, b, c)):
        if p == q and r == s:
            mp, mr = p.majority, r.majority
            if mp is not None and mr is not None and mp != mr:
                return _p3_violation(d, quad)
    return None


def _p3_violation(d: ThreeWayMap, quad: Sequence[str]) -> Optional[str]:
    for x, y, z, u in permutations(quad):
        v_xyz, v_yzu = d.value(x, y, z), d.value(y, z, u)
        if v_xyz != v_yzu:
            continue
        v_xyu, v_xzu = d.value(x, y, u), d.value(x, z, u)
        if v_xyu != v_xzu or v_xyu == v_xyz:
            continue
        ma, mb = v_xyz.majority, v_xyu.majority  # type: ignore[union-attr]
        if ma is None or mb is None:
            continue  # a three-symbol value is already a P2 violation
        if ma != mb:
            return (f"equal pairs {v_xyz.text()} and {v_xyu.text()} have different "
                    f"majority symbols {ma.name} and {mb.name} "
                    f"(roles x={x},y={y},z={z},u={u})")
    return None


# -- quartet classification -----------------------------------------------------

# The seven value patterns realizable by a discriminating labelled rooted tree
# on four leaves, up to relabelling leaves and renaming symbols.  Rows give the
# values on the triples (1,2,3), (1,2,4), (1,3,4), (2,3,4).
_REFERENCE_PATTERNS: dict[int, tuple[str, str, str, str]] = {
    1: ("3A", "3A", "3A", "3A"),
    2: ("2A+B", "2A+B", "3A", "3A"),
    3: ("2A+B", "2A+B", "2A+B", "2A+B"),
    4: ("2A+B", "2A+B", "2A+C", "2A+C"),
    5: ("3B", "2A+B", "2A+B", "2A+B"),
    6: ("A+2B", "3A", "2A+B", "2A+B"),
    7: ("2B+C", "2A+C", "2A+B", "2A+B"),
}

_REF_TABLE = SymbolTable(("A", "B", "C"))
_REF_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
_REF_VALUES: dict[int, dict[frozenset, TripleMultiset]] = {
    i: {frozenset(t): parse_multiset(txt, _REF_TABLE)
        for t, txt in zip(_REF_TRIPLES, row)}
    for i, row in _REFERENCE_PATTERNS.items()
}
_REF_SYMBOLS: dict[int, tuple[Symbol, ...]] = {
    i: tuple(sorted({s for ms in vals.values() for s in ms.entries},
                    key=lambda s: s.name))
    for i, vals in _REF_VALUES.items()
}


@dataclass(frozen=True)
class QuartetType:
    """The matched reference pattern for a 4-subset, if any, together with
    the witnessing leaf and symbol bijections."""

    index: Optional[int]
    leaf_bijection: Optional[dict[str, int]]
    symbol_bijection: Optional[dict[Symbol, Symbol]]  # reference -> map symbols

    def __bool__(self) -> bool:
        return self.index is not None


def classify_quartet(d: ThreeWayMap, four: Sequence[str]) -> QuartetType:
    """Search all 24 leaf bijections and all injective symbol renamings for a
    reference pattern matching the restriction to a 4-subset.

    A match exists exactly when the restriction is representable by a rooted
    labelled tree on the four leaves.
    """
    if d.kind != KIND_MULTISET:
        raise MapError("quartet classification applies to multiset maps")
    four = tuple(four)
    if len(set(four)) != 4:
        raise MapError("classify_quartet needs four distinct names")
    target_syms = sorted(
        {s for t in combinations(four, 3) for s in d.value(*t).entries},  # type: ignore[union-attr]
        key=lambda s: s.name)
    for index in range(1, 8):
        ref_syms = _REF_SYMBOLS[index]
        if len(ref_syms) != len(target_syms):
            continue
        ref_vals = _REF_VALUES[index]
        for perm in permutations((1, 2, 3, 4)):
            leaf_map = dict(zip(four, perm))
            for image in permutations(target_syms):
                sym_map = dict(zip(ref_syms, image))
                ok = True
                for t in combinations(four, 3):
                    ref = ref_vals[frozenset(leaf_map[n] for n in t)]
                    a, b, c = (sym_map[s] for s in ref.entries)
                    if TripleMultiset.of(a, b, c) != d.value(*t):
                        ok = False
                        break
                if ok:
                    return QuartetType(index, leaf_map, sym_map)
    return QuartetType(None, None, None)


def ultrametric_by_five_subsets(d: ThreeWayMap) -> bool:
    """True iff every 5-subset restriction satisfies the P conditions; for
    |X| >= 5 this is equivalent to representability of the whole map."""
    from .maps import restrict

    if len(d.ground) < 5:
        raise MapError("the five-subset test needs a ground set of size at least 5")
    for five in combinations(d.ground, 5):
        if check_three_way_ultrametric(restrict(d, five), stop_after=1):
            return False
    return True


def representable_by_conditions(d: ThreeWayMap) -> bool:
    """Condition-side representability verdict for a three-way map.

    Plain-symbol maps: the M conditions.  Multiset maps: the P conditions
    when the ground set has five or more elements; on exactly four elements
    the P family loses its five-point leg, so the quartet classifier (which
    is the four-leaf characterization) decides instead.
    """
    if d.kind == KIND_SYMBOL:
        return not check_tree_map(d, stop_after=1)
    if len(d.ground) < 4:
        raise MapError("conditions on multiset maps need a ground set of size at least 4")
    if len(d.ground) >= 5:
        return not check_three_way_ultrametric(d, stop_after=1)
    return bool(classify_quartet(d, d.ground))
