"""The U, M and P checkers against the per-subset scans they replaced.

reference_check_ultrametric, reference_check_three_way_ultrametric and
reference_check_tree_map read every value through value() for every
subset, pair and role permutation.  The checkers skip the subsets whose
slot keys are known clean, so they must return the same Violation list, in
the same order: the reference's full list, or its first stop_after
entries, which is what the reference returned when it stopped early.
"""

import random
import string
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from trisym import (
    KIND_MULTISET,
    KIND_PAIR,
    KIND_SYMBOL,
    FivePointSystem,
    SymbolTable,
    ThreeWayMap,
    TwoWayMap,
    check_three_way_ultrametric,
    check_tree_map,
    check_ultrametric,
    three_way_from_rooted,
    three_way_from_two_way,
    three_way_from_unrooted,
    two_way_from_tree,
)
from trisym import conditions
from trisym.conditions import (
    M1, M2, P1, P2, P3, U1, U2, PAIR_OF_TRIPLES_NUMERATORS, TRIPLE_OF_PAIRS, Violation,
    _digits, _pair_codes, _pi_pattern, _p3_violation, _slot_codes, counts_combination,
    pair_counts,
)
from trisym.trees import ROOTED, UNROOTED

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (counts_are_valid, multiset_alphabet, random_multiset_map,  # noqa: E402
                      random_plain_map)
from test_trees import random_labelled_tree  # noqa: E402

NAMES = tuple(string.ascii_uppercase[:12])
PAIR = KIND_PAIR


def reference_check_ultrametric(d):
    """Every U1/U2 violation, one value() call per pair of each 4-subset
    and role permutation."""
    out = []
    for names, (xy, xz, yz) in d.triples():
        if xy != xz != yz != xy:
            out.append(Violation(
                U1, names, f"three pairwise distinct values {xy.name},{xz.name},{yz.name}"))
    for quad in combinations(d.ground, 4):
        hit = _pi_pattern(d.value, quad)
        if hit is not None:
            x, y, z, u = hit
            out.append(Violation(
                U2, quad,
                f"D({x},{y})=D({y},{z})=D({z},{u})={d.value(x, y).name} but "
                f"D({z},{x})=D({x},{u})=D({u},{y})={d.value(z, x).name}"))
    return out


def reference_check_tree_map(d):
    """Every M1/M2 violation, one value() call per triple of each subset."""
    out = []
    for x, y, z, u in combinations(d.ground, 4):
        vals = [d.value(x, y, z), d.value(x, y, u), d.value(x, z, u), d.value(y, z, u)]
        sizes = sorted(vals.count(v) for v in set(vals))
        if sizes not in ([4], [2, 2]):
            shown = ",".join(v.name for v in vals)
            out.append(Violation(
                M1, (x, y, z, u),
                f"triple values {shown} split neither all-equal nor two-and-two"))
    for five in combinations(d.ground, 5):
        for v in five:
            rest = tuple(n for n in five if n != v)
            hit = _pi_pattern(lambda a, b: d.value(v, a, b), rest)
            if hit is not None:
                out.append(Violation(
                    M2, five,
                    f"slice through {v} realizes the forbidden alternating pattern "
                    f"on ({','.join(hit)})"))
                break
    return out


def reference_check_three_way_ultrametric(d):
    """Every P1/P2/P3 violation, one pair_counts call per pair of each
    5-subset."""
    out = []
    for five in combinations(d.ground, 5):
        for p, q in combinations(five, 2):
            e, f, g = [n for n in five if n != p and n != q]
            counts = pair_counts(d, p, q, e, f, g)
            if not counts_are_valid(counts):
                out.append(Violation(
                    P1, five,
                    f"combination for pair ({p},{q}) is {counts_combination(counts).text()}"))
    for t, v in d.triples():
        if len(v.support) > 2:
            out.append(Violation(P2, t, f"value {v.text()} has three distinct symbols"))
    for quad in combinations(d.ground, 4):
        hit = _p3_violation(d, quad)
        if hit is not None:
            out.append(Violation(P3, quad, hit))
    return out


def _five_codes(d):
    """The ten triple codes of a 5-leaf multiset map in combinations order,
    each value packed by its entries' digits."""
    digit = _digits(d.image_symbols())
    return [sum(map(digit.__getitem__, v.entries)) for v in d.values], digit


def _alphabet(kind, table):
    return multiset_alphabet(table) if kind == KIND_MULTISET else list(table)


def _mutant(d, rng, cells):
    values = list(d.values)
    alphabet = _alphabet(d.kind, d.symbols)
    for i in rng.sample(range(len(values)), cells):
        values[i] = rng.choice([v for v in alphabet if v != values[i]])
    if isinstance(d, TwoWayMap):
        return TwoWayMap(d.ground, values, d.symbols)
    return ThreeWayMap(d.kind, d.ground, values, d.symbols)


def _random_map(kind, leaves, symbols, rng):
    ground, table = [str(i + 1) for i in range(leaves)], SymbolTable(NAMES[:symbols])
    if kind == PAIR:
        return TwoWayMap(ground, [rng.choice(list(table)) for _ in combinations(ground, 2)],
                         table)
    make = random_multiset_map if kind == KIND_MULTISET else random_plain_map
    return make(ground, table, rng)


def _assembled_map(leaves, symbols, rng):
    """The multiset map of a random pair map: P1 holds on every 5-subset, so
    only P2 and P3 can fail."""
    table = SymbolTable(NAMES[:symbols])
    ground = [str(i + 1) for i in range(leaves)]
    syms = list(table)
    return three_way_from_two_way(
        TwoWayMap(ground, [rng.choice(syms) for _ in combinations(ground, 2)], table))


def _maps(kind, count, seed):
    """count maps of one kind: per tree on 5-8 leaves its clean map and a
    mutant in one or two cells, then random maps on 5-6 leaves over 1-12
    symbols (for multiset maps, half of them assembled from random pair
    maps)."""
    rng = random.Random(seed)
    flavor = UNROOTED if kind == KIND_SYMBOL else ROOTED
    construct = {KIND_MULTISET: three_way_from_rooted, KIND_SYMBOL: three_way_from_unrooted,
                 PAIR: two_way_from_tree}[kind]
    out = []
    for i in range(count // 4):
        leaves = 5 + i % 4
        symbols = NAMES[:2 + i % 11]
        lt = random_labelled_tree(seed + i, leaves if flavor == ROOTED else leaves - 1,
                                  flavor, symbol_names=symbols, discriminating=i % 3 > 0)
        d = construct(lt)
        out += [d, _mutant(d, rng, 1 + i % 2)]
    for i in range(count - len(out)):
        leaves, symbols = 5 + i % 2, 1 + i % 12
        if kind == KIND_MULTISET and i % 2:
            out.append(_assembled_map(leaves, symbols, rng))
        else:
            out.append(_random_map(kind, leaves, symbols, rng))
    return out


@pytest.mark.parametrize("kind, check, reference", [
    (KIND_MULTISET, check_three_way_ultrametric, reference_check_three_way_ultrametric),
    (KIND_SYMBOL, check_tree_map, reference_check_tree_map),
    (PAIR, check_ultrametric, reference_check_ultrametric),
], ids=["P", "M", "U"])
def test_checkers_match_the_reference_scans(kind, check, reference):
    maps = _maps(kind, 460, {KIND_MULTISET: 7100, KIND_SYMBOL: 7200, PAIR: 7500}[kind])
    assert len(maps) == 460 and all(d.kind == kind for d in maps)
    clean, kinds = 0, set()
    for d in maps:
        want = reference(d)
        for stop_after in (None, 1, 3):
            assert check(d, stop_after) == want[:stop_after], (d.ground, d.values)
        clean += not want
        kinds.update(v.kind for v in want)
    assert 100 < clean < 260
    assert kinds == {KIND_MULTISET: {P1, P2, P3}, KIND_SYMBOL: {M1, M2}, PAIR: {U1, U2}}[kind]


@pytest.mark.parametrize("symbols", [1, 2, 3, 5, 12])
def test_row_test_matches_the_matrix_route(symbols):
    """For every pair of random 5-leaf maps, the packed code of the row's
    combination is 6 times one symbol's digit exactly when the matrix route
    recovers that symbol."""
    rng = random.Random(7300 + symbols)
    for _ in range(40):
        d = _random_map(KIND_MULTISET, 5, symbols, rng)
        codes, digit = _five_codes(d)
        recovered = FivePointSystem(d, d.ground).pair_symbols()
        for code, sym in zip(_pair_codes(codes), recovered):
            want = None if sym is None else 6 * digit[sym]
            assert (code if code in {6 * g for g in digit.values()} else None) == want


def test_the_derived_matrices_are_the_five_point_system():
    """TRIPLE_OF_PAIRS and PAIR_OF_TRIPLES_NUMERATORS are built from subset
    containment; these are their rows written out."""
    assert TRIPLE_OF_PAIRS == (
        (1, 1, 0, 0, 1, 0, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 1, 0, 0, 0, 0),
        (1, 0, 0, 1, 0, 0, 1, 0, 0, 0),
        (0, 1, 1, 0, 0, 0, 0, 1, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 0, 1, 0),
        (0, 0, 1, 1, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 1, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 1, 1, 0, 0, 1),
        (0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    )
    assert PAIR_OF_TRIPLES_NUMERATORS == (
        (2, 2, 2, -1, -1, -1, -1, -1, -1, 2),
        (2, -1, -1, 2, 2, -1, -1, -1, 2, -1),
        (-1, 2, -1, 2, -1, 2, -1, 2, -1, -1),
        (-1, -1, 2, -1, 2, 2, 2, -1, -1, -1),
        (2, -1, -1, -1, -1, 2, 2, 2, -1, -1),
        (-1, 2, -1, -1, 2, -1, 2, -1, 2, -1),
        (-1, -1, 2, 2, -1, -1, -1, 2, 2, -1),
        (-1, -1, 2, 2, -1, -1, 2, -1, -1, 2),
        (-1, 2, -1, -1, 2, -1, -1, 2, -1, 2),
        (2, -1, -1, -1, -1, 2, -1, -1, 2, 2),
    )


def test_clean_maps_never_fall_back_to_pair_counts(monkeypatch):
    """The row test accepts every valid combination, so on tree maps over
    2-12 symbols no 5-subset runs the per-pair loop."""
    maps = _maps(KIND_MULTISET, 120, 7400)[:60:2]
    monkeypatch.setattr("trisym.conditions.pair_counts", None)
    for d in maps:
        assert check_three_way_ultrametric(d) == []


def test_the_row_test_is_exact_where_narrower_digits_would_alias(abc_table):
    """Row (1,2) over A,B,C: +2 columns 3B,3B,3B,3C and -1 columns
    3A,3A,3A,A+2C,3C,B+2C give the invalid counts A:-10, B:17, C:-1.
    Packed in base 16 they would read 6, the code of a valid 6A."""
    from conftest import multiset_map

    rows = dict(zip(("123", "124", "125", "345", "134", "135", "145", "234", "235", "245"),
                    ("3B", "3B", "3B", "3C", "3A", "3A", "3A", "A+2C", "3C", "B+2C")))
    d = multiset_map(tuple("12345"), rows, abc_table)
    a, b, c = (abc_table.intern(n) for n in "ABC")
    assert pair_counts(d, "1", "2", "3", "4", "5") == {a: -10, b: 17, c: -1}
    codes, digit = _five_codes(d)
    assert list(digit) == [a, b, c]
    assert _pair_codes(codes)[0] not in {6 * g for g in digit.values()}
    got = check_three_way_ultrametric(d)
    assert got == reference_check_three_way_ultrametric(d)
    assert got[0].detail.startswith("combination for pair (1,2) is ")


def test_the_p3_code_test_is_exact_on_every_four_leaf_map(monkeypatch, abc_table):
    """Every assignment of the ten multisets over A,B,C to the four triples
    of a 4-leaf map: P3's test on the subset's four values calls
    _p3_violation exactly when the reference finds a violation."""
    alphabet = multiset_alphabet(abc_table)
    assert len(alphabet) == 10
    quad = ("1", "2", "3", "4")
    monkeypatch.setattr(conditions, "_p3_violation", lambda d, quad: "hit")
    hits = 0
    for values in product(alphabet, repeat=4):
        d = ThreeWayMap(KIND_MULTISET, quad, values, abc_table)
        table = _slot_codes(d)
        key = tuple(table[a][b][c] for a, b, c in combinations(range(4), 3))
        assert key == values
        want = _p3_violation(d, quad) is not None
        assert (conditions._p3_detail(d, quad, key) == "hit") == want, values
        hits += want
    assert 0 < hits < 10 ** 4
