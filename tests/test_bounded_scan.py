"""The P and M checkers bounded by a labelled tree near the map.

Given a tree T on the map's ground, the checkers scan only the subsets that
hold a triple where the map differs from T's map.  Every tree's map
satisfies every condition, so the violation list must be the full scan's,
whichever tree T is: the tree near_tree builds from the map, or a random
one.  The bound is passed by `trisym check` only; the routes that
cross-validate compares keep the full scan.
"""

import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from trisym import (
    KIND_MULTISET,
    KIND_SYMBOL,
    check_three_way_ultrametric,
    check_tree_map,
    conditions,
    reconstruct,
    representable_by_conditions,
    save_three_way_map,
    three_way_from_rooted,
    three_way_from_unrooted,
)
from trisym.cli import main
from trisym.maps import ThreeWayMap
from trisym.reconstruct import near_tree
from trisym.trees import ROOTED, UNROOTED

sys.path.insert(0, str(Path(__file__).parent))
from test_condition_codes import NAMES, _alphabet, _assembled_map, _mutant, _random_map  # noqa: E402
from test_trees import random_labelled_tree  # noqa: E402

FAMILIES = {
    KIND_MULTISET: (ROOTED, three_way_from_rooted, check_three_way_ultrametric),
    KIND_SYMBOL: (UNROOTED, three_way_from_unrooted, check_tree_map),
}


def _tree(seed, leaves, kind, symbols, discriminating):
    """A random labelled tree on leaves named 1..leaves, of the flavor
    kind's conditions characterize."""
    flavor = FAMILIES[kind][0]
    return random_labelled_tree(seed, leaves if flavor == ROOTED else leaves - 1, flavor,
                                symbol_names=NAMES[:symbols], discriminating=discriminating)


def _p2_heavy(d, rng, cells):
    """d with cells of its slots, chosen at random, set to values of three
    distinct symbols."""
    three = [v for v in _alphabet(KIND_MULTISET, d.symbols) if len(v.support) == 3]
    values = list(d.values)
    for i in rng.sample(range(len(values)), cells):
        values[i] = rng.choice(three)
    return ThreeWayMap(d.kind, d.ground, values, d.symbols)


def _corpus(kind, count, seed):
    """count maps on 5-12 leaves over 1-6 symbols: per tree its clean map
    and a mutant in 1-3 cells; then, for multiset maps, maps assembled from
    random pair maps and tree maps with 1-3 cells, or a third of them, set
    to three distinct symbols; then random maps on 5-7 leaves."""
    rng = random.Random(seed)
    construct = FAMILIES[kind][1]
    out = []
    for i in range(count * 3 // 8):
        leaves = 5 + i % 8
        d = construct(_tree(seed + i, leaves, kind, 2 + i % 3, i % 4 > 0))
        out += [d, _mutant(d, rng, 1 + i % 3)]
    if kind == KIND_MULTISET:
        out += [_assembled_map(5 + i % 8, 2 + i % 3, rng) for i in range(count // 8)]
        for i in range(count // 16):
            d = construct(_tree(seed + 20_000 + i, 5 + i % 8, kind, 3 + i % 2, True))
            out.append(_p2_heavy(d, rng, 1 + i % 3 if i % 2 else len(d.values) // 3))
    for i in range(count - len(out)):
        out.append(_random_map(kind, 5 + i % 3, 1 + i % 6, rng))
    return out


@pytest.mark.parametrize("kind", [KIND_MULTISET, KIND_SYMBOL], ids=["P", "M"])
def test_bounded_scans_match_the_full_scan(monkeypatch, kind):
    """Bounded by near_tree's tree, the checker runs as check runs it.  A
    random tree's Delta is mostly too large to bound the scan, so against
    it the fallback is switched off and the bounded scan runs on every map:
    that tests the soundness argument itself.  Besides the first one and
    three violations, the lists are cut after the first P2 violation and
    after a middle one."""
    seed = 8100 if kind == KIND_MULTISET else 8200
    check = FAMILIES[kind][2]
    maps = _corpus(kind, 520, seed)
    assert len(maps) == 520
    rng = random.Random(seed)
    subsets = conditions._subsets
    found = bounded = negatives = p2_cuts = 0
    for i, d in enumerate(maps):
        want = check(d)
        near = near_tree(d)
        p2 = [j for j, v in enumerate(want) if v.kind == conditions.P2]
        cuts = (None, 1, 3) + ((p2[0] + 1, p2[len(p2) // 2] + 1) if p2 else ())
        p2_cuts += bool(p2) and p2[0] > 0
        for stop_after in cuts:
            assert check(d, stop_after, near=near) == want[:stop_after], (d.ground, d.values)
        symbols = rng.randint(1, 4)
        other = _tree(seed + 10_000 + i, len(d.ground), kind, symbols,
                      symbols > 1 and rng.random() < 0.5)
        with monkeypatch.context() as m:
            m.setattr(conditions, "_subsets", lambda n, k, delta: subsets(n, k, delta)
                      if delta is None else conditions._holding(n, k, delta))
            for stop_after in cuts:
                assert check(d, stop_after, near=other) == want[:stop_after], (
                    d.ground, d.values, other)
        found += near is not None
        negatives += bool(want)
        if near is not None and want:
            delta = conditions._delta(d, near)
            n = len(d.ground)
            bounded += len(delta) * comb(n - 3, 2) < comb(n, 5)
    # near_tree finds a tree for every clean map and for some negatives,
    # and some negatives get a 5-subset scan smaller than the full one
    assert found > 300 and negatives > 250 and bounded > 50
    # and in many multiset maps the P2 cuts fall after other violations
    assert p2_cuts > 60 if kind == KIND_MULTISET else p2_cuts == 0


def _recording(monkeypatch):
    """Record the size of every subset list the checkers scan, and make
    every per-subset test fail the calling test."""
    visits = []
    subsets = conditions._subsets

    def record(n, k, delta):
        got = list(subsets(n, k, delta))
        visits.append((k, len(got)))
        return got

    def refuse(*args):
        raise AssertionError("a per-subset test ran")

    monkeypatch.setattr(conditions, "_subsets", record)
    return visits, refuse


@pytest.mark.parametrize("kind", [KIND_MULTISET, KIND_SYMBOL], ids=["P", "M"])
@pytest.mark.parametrize("leaves", [16, 32, 64])
def test_the_bounded_check_of_a_clean_map_visits_no_subset(monkeypatch, kind, leaves):
    d = FAMILIES[kind][1](_tree(leaves, leaves, kind, 3, True))
    visits, refuse = _recording(monkeypatch)
    for name in ("_m1_violation", "_m2_violation", "_p3_violation"):
        monkeypatch.setattr(conditions, name, refuse)
    monkeypatch.setattr(conditions, "_p1_details", lambda d, singles: refuse)
    assert FAMILIES[kind][2](d, near=near_tree(d)) == []
    assert sorted(visits) == [(3, 0)] * (kind == KIND_MULTISET) + [(4, 0), (5, 0)]


@pytest.mark.parametrize("kind", [KIND_MULTISET, KIND_SYMBOL], ids=["P", "M"])
@pytest.mark.parametrize("leaves", [16, 32, 64])
def test_the_bounded_check_of_a_one_cell_mutant_visits_the_subsets_of_its_cell(
        monkeypatch, kind, leaves):
    """The cell is the triple of the last three ground leaves.  It lies in
    no 5-subset the decision's pair recovery reads, and it avoids the leaf
    the symbol map is projected through, so near_tree builds the clean
    map's tree and Delta is that one triple."""
    clean = FAMILIES[kind][1](_tree(leaves, leaves, kind, 3, True))
    values = list(clean.values)
    values[-1] = next(v for v in _alphabet(kind, clean.symbols) if v != values[-1])
    d = ThreeWayMap(kind, clean.ground, values, clean.symbols)
    check = FAMILIES[kind][2]
    visits, _ = _recording(monkeypatch)
    got = check(d, near=near_tree(d))
    assert sorted(visits) == [(3, 1)] * (kind == KIND_MULTISET) + [
        (4, leaves - 3), (5, comb(leaves - 3, 2))]
    cell = set(d.ground[-3:])
    assert all(cell <= set(v.witness) for v in got)
    if leaves == 16:
        assert got == check(d)


class Refused(Exception):
    pass


@pytest.mark.parametrize("kind, codomain, family", [
    (KIND_MULTISET, "multiset", "P"), (KIND_SYMBOL, "symbol", "M")])
def test_cross_validation_keeps_the_full_scan(monkeypatch, capsys, tmp_path,
                                              kind, codomain, family):
    """With near_tree refusing to run, the conditions route still gives its
    verdicts, alone and inside cross-validate; check is the caller that
    reaches it."""
    def refuse(d):
        raise Refused

    monkeypatch.setattr(reconstruct, "near_tree", refuse)
    clean = FAMILIES[kind][1](_tree(3, 6, kind, 3, True))
    values = list(clean.values)
    values[0] = next(v for v in _alphabet(kind, clean.symbols) if v != values[0])
    mutant = ThreeWayMap(kind, clean.ground, values, clean.symbols)
    for d, verdict in ((clean, True), (mutant, False)):
        assert representable_by_conditions(d) == verdict
        path = tmp_path / "map.tsv"
        path.write_text(save_three_way_map(d))
        assert main(["cross-validate", str(path), "--codomain", codomain]) == 0
        word = "representable" if verdict else "not-representable"
        assert capsys.readouterr().out.startswith(f"conditions: {word}\n")
        with pytest.raises(Refused):
            main(["check", str(path), "--conditions", family])


def test_near_tree_rotates_past_a_failed_window():
    """A one-cell mutant inside the first window of pair (1,2) breaks that
    pair's first combination; the decision stops there, while near_tree
    recovers the pair from a later window and builds the clean tree."""
    clean = three_way_from_rooted(_tree(5, 8, KIND_MULTISET, 3, True))
    first = tuple(clean.ground[:5])
    slot = list(combinations(clean.ground, 3)).index(first[2:5])
    values = list(clean.values)
    values[slot] = next(v for v in _alphabet(KIND_MULTISET, clean.symbols) if v != values[slot])
    d = ThreeWayMap(KIND_MULTISET, clean.ground, values, clean.symbols)
    assert reconstruct.decide_ultrametric(d).detail.startswith(
        f"pair ({first[0]},{first[1]}): combination over ")
    assert three_way_from_rooted(near_tree(d), d.ground) == clean
    assert conditions._delta(d, near_tree(d)) == [(2, 3, 4)]


@pytest.mark.parametrize("leaves", [16, 32])
def test_near_tree_projects_around_a_cell_that_holds_the_first_leaf(
        monkeypatch, capsys, tmp_path, leaves):
    """The cell is the triple of the first three ground leaves, so the
    projection through the first leaf sees the change.  A one-cell change
    holds three leaves, so one of the first four avoids it: near_tree
    projects through that one and builds the clean map's tree, and check
    visits only the 5-subsets that hold the cell."""
    clean = three_way_from_unrooted(_tree(leaves, leaves, KIND_SYMBOL, 3, True))
    values = list(clean.values)
    values[0] = next(v for v in _alphabet(KIND_SYMBOL, clean.symbols) if v != values[0])
    d = ThreeWayMap(KIND_SYMBOL, clean.ground, values, clean.symbols)
    near = near_tree(d)
    assert near is not None
    assert three_way_from_unrooted(near, d.ground) == clean
    assert conditions._delta(d, near) == [(0, 1, 2)]
    path = tmp_path / "map.tsv"
    path.write_text(save_three_way_map(d))
    visits, _ = _recording(monkeypatch)
    assert main(["check", str(path), "--conditions", "M"]) == 1
    assert capsys.readouterr().out.startswith("M1 at (")
    assert dict(visits)[5] <= comb(leaves - 3, 2)
