"""One Symbol per name: symbols compare and hash by identity.

Every way of getting a symbol for a name, from any table, by copying or by
pickling, gives the one registered object, so maps and trees built with
different tables still meet on equal symbols.
"""

import copy
import pickle
import sys
import threading
from fractions import Fraction

from trisym import (
    KIND_MULTISET,
    KIND_SYMBOL,
    Symbol,
    SymbolCombination,
    SymbolTable,
    decide_tree_map,
    decide_ultrametric,
    load_three_way_map,
    pair_counts,
    parse_multiset,
    parse_newick,
    save_three_way_map,
    three_way_from_rooted,
    three_way_from_unrooted,
)


def test_a_name_has_one_symbol():
    assert Symbol("A") is SymbolTable().intern("A")
    assert SymbolTable(["B", "A"]).intern("A") is SymbolTable(["A"]).intern("A")
    assert Symbol("A") is not Symbol("B")


def test_threads_that_intern_one_new_name_get_one_symbol():
    """Four threads intern the same fresh names at once, with the interpreter
    switching threads as often as it can; each name must come out as one
    object in every thread."""
    names = [f"race{i}" for i in range(300)]
    got = [[] for _ in range(4)]
    start = threading.Barrier(len(got))

    def work(out):
        start.wait(timeout=10)
        table = SymbolTable()
        out.extend(table.intern(n) for n in names)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for column in zip(*got):
        assert all(s is column[0] for s in column)
    assert len({id(s) for s in got[0]}) == len(names)


def test_copies_and_pickles_are_the_registered_symbol():
    a = SymbolTable().intern("A")
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    ms = parse_multiset("2A+B", SymbolTable())
    assert copy.deepcopy(ms).entries[0] is a
    assert pickle.loads(pickle.dumps(ms)) == ms


def test_a_tree_and_a_map_from_different_tables_meet():
    for flavor, text, kind, construct, decide in (
            ("rooted", "((1,2)B,(3,4)C,5,6)A;", KIND_MULTISET, three_way_from_rooted,
             decide_ultrametric),
            ("unrooted", "((1,2)B,3,(4,5)C,6)A;", KIND_SYMBOL, three_way_from_unrooted,
             decide_tree_map)):
        tree = parse_newick(flavor, text, SymbolTable(["C", "B", "A"]))
        built = construct(tree)
        loaded = load_three_way_map(save_three_way_map(built), kind, SymbolTable())
        assert loaded.symbols is not built.symbols
        assert loaded == built and hash(loaded) == hash(built)
        assert loaded.image_symbols() == built.image_symbols()
        outcome = decide(loaded)
        assert outcome.representable
        assert construct(outcome.tree, loaded.ground) == built


def test_combinations_are_equal_across_tables():
    t1, t2 = SymbolTable(["a", "b"]), SymbolTable(["b", "a"])
    x = SymbolCombination({t1.intern("a"): Fraction(1, 2), t1.intern("b"): 2})
    y = SymbolCombination({t2.intern("b"): 2, t2.intern("a"): Fraction(1, 2)})
    assert x == y and hash(x) == hash(y)
    assert x != SymbolCombination({t2.intern("a"): Fraction(1, 2)})
    assert len({x, y}) == 1


def test_pair_counts_keys_are_the_maps_own_symbols():
    tree = parse_newick("rooted", "((1,2)B,(3,4)C,5)A;", SymbolTable(["A", "B", "C"]))
    d = load_three_way_map(save_three_way_map(three_way_from_rooted(tree)), KIND_MULTISET)
    own = {id(s) for v in d.values for s in v.entries}
    counts = pair_counts(d, "1", "2", "3", "4", "5")
    assert counts == {d.symbols.intern("B"): 6}
    assert all(id(s) in own for s in counts)
