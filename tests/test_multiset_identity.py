"""One TripleMultiset per multiset: multisets compare and hash by identity.

Every way of getting a multiset of three symbols, in any entry order, from
any table, by parsing, copying or pickling, gives the one registered
object, so map values compare as tuples of identities.
"""

import copy
import dataclasses
import pickle
import sys
import threading
from itertools import permutations

import pytest

from trisym import (
    KIND_MULTISET,
    SymbolError,
    SymbolTable,
    TripleMultiset,
    load_three_way_map,
    parse_multiset,
    parse_newick,
    save_three_way_map,
    three_way_from_rooted,
)


def test_every_entry_order_gives_one_multiset():
    a, b, c = SymbolTable(["A", "B", "C"])
    for entries in ((a, a, b), (a, b, c), (c, c, c)):
        got = {id(TripleMultiset(p)) for p in permutations(entries)}
        got |= {id(TripleMultiset.of(*p)) for p in permutations(entries)}
        got.add(id(TripleMultiset(list(reversed(entries)))))
        assert len(got) == 1
    assert TripleMultiset((b, a, a)).entries == (a, a, b)
    assert TripleMultiset((a, a, b)) is not TripleMultiset((a, b, b))


def test_tables_and_parsing_meet_on_one_multiset():
    t1, t2 = SymbolTable(["A", "B"]), SymbolTable(["B", "A"])
    ms = parse_multiset("2A+B", t1)
    assert parse_multiset("B+A+A", t2) is ms
    assert parse_multiset("A+B+A", SymbolTable()) is ms
    assert TripleMultiset.of(t2.intern("B"), t2.intern("A"), t2.intern("A")) is ms
    assert ms == parse_multiset("2A+B", t2) and hash(ms) == object.__hash__(ms)
    assert ms != parse_multiset("A+2B", t1)


def test_copies_and_pickles_are_the_registered_multiset():
    ms = parse_multiset("A+B+C", SymbolTable())
    assert copy.copy(ms) is ms
    assert copy.deepcopy(ms) is ms
    assert copy.deepcopy([ms, {ms: ms}])[0] is ms
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ms, protocol)) is ms


def test_a_loaded_map_shares_the_trees_multisets():
    tree = parse_newick("rooted", "((1,2)B,(3,4)C,5,6)A;", SymbolTable(["C", "B", "A"]))
    built = three_way_from_rooted(tree)
    loaded = load_three_way_map(save_three_way_map(built), KIND_MULTISET, SymbolTable())
    assert all(x is y for x, y in zip(loaded.values, built.values))
    assert pickle.loads(pickle.dumps(loaded.values)) == built.values


def test_threads_that_make_one_new_multiset_get_one_object():
    """Four threads make the same fresh multisets at once, each in its own
    entry order, with the interpreter switching threads as often as it can;
    each multiset must come out as one object in every thread."""
    table = SymbolTable([f"race_ms{i}" for i in range(12)])
    syms = list(table)
    triples = [(syms[i], syms[j], syms[k]) for i in range(12) for j in range(i, 12)
               for k in range(j, 12)]
    got = [[] for _ in range(4)]
    start = threading.Barrier(len(got))

    def work(out, turn):
        start.wait(timeout=10)
        out.extend(TripleMultiset(t[turn:] + t[:turn]) for t in triples)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out, k % 3))
                   for k, out in enumerate(got)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for column in zip(*got):
        assert all(ms is column[0] for ms in column)
    assert len({id(ms) for ms in got[0]}) == len(triples)


@pytest.mark.parametrize("size", [0, 1, 2, 4])
def test_a_wrong_entry_count_is_refused(size):
    a = SymbolTable(["A"]).intern("A")
    with pytest.raises(SymbolError, match="^a TripleMultiset has exactly three entries$"):
        TripleMultiset((a,) * size)


def test_entries_cannot_be_assigned():
    ms = parse_multiset("3A", SymbolTable())
    b = SymbolTable(["B"]).intern("B")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ms.entries = (b, b, b)
    assert [s.name for s in ms.entries] == ["A", "A", "A"]
