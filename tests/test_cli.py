import json
import random
from math import comb

import pytest

from trisym import (
    labelled_isomorphic,
    load_three_way_map,
    parse_tree,
    save_three_way_map,
    three_way_from_rooted,
    tree_to_text,
)
from trisym.cli import MAX_MAP_ROWS, main
from trisym.maps import KIND_MULTISET, KIND_SYMBOL

from conftest import caterpillar_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def rooted_tree_file(tmp_path, five_leaf_rooted):
    p = tmp_path / "rooted.tree"
    p.write_text(tree_to_text(five_leaf_rooted))
    return str(p)


@pytest.fixture
def unrooted_tree_file(tmp_path, five_leaf_unrooted):
    p = tmp_path / "unrooted.tree"
    p.write_text(tree_to_text(five_leaf_unrooted))
    return str(p)


@pytest.fixture
def bad_map_file(tmp_path, locally_consistent_map):
    p = tmp_path / "bad.tsv"
    p.write_text(save_three_way_map(locally_consistent_map))
    return str(p)


def test_map_from_tree_roundtrip(capsys, tmp_path, rooted_tree_file, five_leaf_rooted):
    out_path = tmp_path / "map.tsv"
    code, _, _ = run(capsys, "map-from-tree", rooted_tree_file, "-o", str(out_path))
    assert code == 0
    d = load_three_way_map(out_path.read_text(), KIND_MULTISET)
    assert d == three_way_from_rooted(five_leaf_rooted)


def test_map_from_tree_then_reconstruct(capsys, tmp_path, rooted_tree_file,
                                        five_leaf_rooted):
    map_path = tmp_path / "map.tsv"
    run(capsys, "map-from-tree", rooted_tree_file, "-o", str(map_path))
    tree_out = tmp_path / "back.txt"
    code, _, _ = run(capsys, "reconstruct", str(map_path),
                     "--codomain", "multiset", "-o", str(tree_out))
    assert code == 0
    text = tree_out.read_text()
    assert text.startswith("verdict: representable")
    rebuilt = parse_tree("\n".join(text.splitlines()[-2:]))
    assert labelled_isomorphic(rebuilt, five_leaf_rooted)


def test_reconstruct_negative_exit(capsys, tmp_path, bad_map_file):
    code, out, _ = run(capsys, "reconstruct", bad_map_file, "--codomain", "multiset")
    assert code == 1
    assert "not-representable" in out


def test_check_clean_and_violations(capsys, tmp_path, rooted_tree_file, bad_map_file):
    map_path = tmp_path / "map.tsv"
    run(capsys, "map-from-tree", rooted_tree_file, "-o", str(map_path))
    code, out, _ = run(capsys, "check", str(map_path), "--conditions", "P")
    assert code == 0 and out.strip() == "clean"
    code, out, _ = run(capsys, "check", bad_map_file, "--conditions", "P")
    assert code == 1
    assert "P1" in out


def test_check_lists_violations_on_block_map(capsys, tmp_path, block_value_map):
    p = tmp_path / "block.tsv"
    p.write_text(save_three_way_map(block_value_map))
    code, out, _ = run(capsys, "check", str(p), "--conditions", "P")
    assert code == 1
    assert any(line.startswith("P1") for line in out.splitlines())


def test_check_json_report(capsys, bad_map_file):
    code, out, _ = run(capsys, "check", bad_map_file, "--conditions", "P",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["conditions"] == "P"
    assert payload["violations"][0]["kind"] == "P1"
    assert payload["violations"][0]["witness"] == ["1", "2", "3", "4", "5"]


def test_check_m_on_plain_map(capsys, tmp_path, unrooted_tree_file):
    map_path = tmp_path / "plain.tsv"
    run(capsys, "map-from-tree", unrooted_tree_file, "-o", str(map_path))
    code, out, _ = run(capsys, "check", str(map_path), "--conditions", "M")
    assert code == 0 and out.strip() == "clean"


U_MAPS = {
    "clean": ("1 2 A", "1 3 B", "2 3 B"),
    "U1": ("1 2 A", "1 3 B", "2 3 C"),
    "U2": ("1 2 A", "1 3 B", "1 4 B", "2 3 A", "2 4 B", "3 4 A"),
}

U_VIOLATIONS = {
    "U1": (["1", "2", "3"], "three pairwise distinct values A,B,C"),
    "U2": (["1", "2", "3", "4"], "D(1,2)=D(2,3)=D(3,4)=A but D(3,1)=D(1,4)=D(4,2)=B"),
}


def two_way_file(tmp_path, rows):
    p = tmp_path / "pairs.tsv"
    p.write_text("x y value\n" + "".join(f"{row}\n" for row in rows))
    return str(p)


def test_check_u_on_clean_map(capsys, tmp_path):
    path = two_way_file(tmp_path, U_MAPS["clean"])
    assert run(capsys, "check", path, "--conditions", "U") == (0, "clean\n", "")
    code, out, _ = run(capsys, "check", path, "--conditions", "U", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"conditions": "U", "violations": []}


@pytest.mark.parametrize("kind", sorted(U_VIOLATIONS))
def test_check_u_reports_violations(capsys, tmp_path, kind):
    path = two_way_file(tmp_path, U_MAPS[kind])
    witness, detail = U_VIOLATIONS[kind]
    code, out, err = run(capsys, "check", path, "--conditions", "U")
    assert (code, out, err) == (1, f"{kind} at ({','.join(witness)}): {detail}\n", "")
    code, out, _ = run(capsys, "check", path, "--conditions", "U", "--format", "json")
    assert code == 1
    assert out == json.dumps({"conditions": "U", "violations": [
        {"kind": kind, "witness": witness, "detail": detail}]}, indent=2) + "\n"


def test_check_u_on_malformed_map(capsys, tmp_path):
    path = two_way_file(tmp_path, ("1 2 A", "1 3 B"))
    assert run(capsys, "check", path, "--conditions", "U") == (
        2, "", "error: missing value for pair ['2', '3']\n")


def test_farris_refuses_rooted_tree(capsys, rooted_tree_file):
    assert run(capsys, "farris", rooted_tree_file, "--leaf", "1") == (
        2, "", "error: the leaf re-rooting transform expects an unrooted tree\n")


def test_farris_on_tree(capsys, tmp_path, unrooted_tree_file):
    out_path = tmp_path / "rooted.tree"
    code, _, _ = run(capsys, "farris", unrooted_tree_file, "--leaf", "1",
                     "-o", str(out_path))
    assert code == 0
    rooted = parse_tree(out_path.read_text())
    assert rooted.flavor == "rooted"
    assert set(rooted.leaf_order) == {"2", "3", "4", "5"}


def test_farris_on_map(capsys, tmp_path, unrooted_tree_file):
    map_path = tmp_path / "plain.tsv"
    run(capsys, "map-from-tree", unrooted_tree_file, "-o", str(map_path))
    code, out, _ = run(capsys, "farris", str(map_path), "--leaf", "5")
    assert code == 0
    assert out.splitlines()[0] == "x y value"
    assert "1 2 B" in out


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--leaves", "4", "--symbols", "2",
                       "--flavor", "rooted")
    assert code == 0
    assert "shapes: 26" in out
    assert "labelled: 52" in out


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--leaves", "4", "--symbols", "2",
                       "--flavor", "unrooted", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["shapes"] == 4


def test_census_rejects_one_rooted_leaf(capsys):
    code, _, err = run(capsys, "census", "--leaves", "1", "--symbols", "2",
                       "--flavor", "rooted")
    assert code == 2
    assert err == "error: rooted enumeration needs at least 2 leaves\n"


def test_cross_validate_agreement(capsys, tmp_path, rooted_tree_file, bad_map_file):
    map_path = tmp_path / "map.tsv"
    run(capsys, "map-from-tree", rooted_tree_file, "-o", str(map_path))
    code, out, _ = run(capsys, "cross-validate", str(map_path),
                       "--codomain", "multiset")
    assert code == 0 and "agree" in out
    code, out, _ = run(capsys, "cross-validate", bad_map_file,
                       "--codomain", "multiset")
    assert code == 0  # all three agree the map is not representable
    assert "not-representable" in out


@pytest.mark.parametrize("codomain, value, message", [
    ("symbol", "A", "M conditions need a ground set of size at least 4"),
    ("multiset", "3A", "conditions on multiset maps need a ground set of size at least 4"),
])
def test_cross_validate_refuses_three_leaves(capsys, tmp_path, codomain, value, message):
    p = tmp_path / "three.tsv"
    p.write_text(f"x y z value\n1 2 3 {value}\n")
    code, out, err = run(capsys, "cross-validate", str(p), "--codomain", codomain)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cross_validate_six_leaf_multiset_map(capsys, tmp_path):
    from test_trees import random_labelled_tree

    lt = random_labelled_tree(7, 6, "rooted", symbol_names=("A", "B", "C"),
                              discriminating=True)
    p = tmp_path / "six.tsv"
    p.write_text(save_three_way_map(three_way_from_rooted(lt)))
    code, out, _ = run(capsys, "cross-validate", str(p), "--codomain", "multiset")
    assert code == 0
    assert out == ("conditions: representable\nreconstruction: representable\n"
                   "oracle: representable\nagree\n")


@pytest.mark.parametrize("value,verdict", [("3D", "representable"),
                                           ("A+2D", "not-representable")])
def test_cross_validate_runs_the_oracle_on_four_symbols(capsys, tmp_path, value, verdict):
    """The oracle reads its labels off the map, so six-leaf maps over four
    symbols get its verdict too: a clean map and its one-cell mutant."""
    from trisym import parse_newick

    lt = parse_newick("rooted", "((((1,2)A,3)B,4)C,5,6)D;")
    text = save_three_way_map(three_way_from_rooted(lt))
    p = tmp_path / "six.tsv"
    p.write_text(text.replace("4 5 6 3D", f"4 5 6 {value}"))
    code, out, _ = run(capsys, "cross-validate", str(p), "--codomain", "multiset")
    assert code == 0
    assert out == (f"conditions: {verdict}\nreconstruction: {verdict}\n"
                   f"oracle: {verdict}\nagree\n")


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.tsv"
    p.write_text("x y z value\n1 2 3 3A\n")
    code, _, err = run(capsys, "check", str(p), "--conditions", "P")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("value", ["10A", "1000000000000000000000A", "1" * 5000 + "A",
                                   "\u0663A"], ids=["10", "1e21", "5000 digits", "non-ASCII"])
def test_multiset_counts_beyond_one_digit_exit_2(capsys, tmp_path, value):
    p = tmp_path / "count.tsv"
    p.write_text(f"x y z value\n1 2 3 {value}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(p), "--conditions", "P")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.tsv", "--conditions", "P")
    assert code == 2


def test_reports_are_deterministic(capsys, bad_map_file):
    _, first, _ = run(capsys, "check", bad_map_file, "--conditions", "P")
    _, second, _ = run(capsys, "check", bad_map_file, "--conditions", "P")
    assert first == second


def test_undecodable_input_exit_code(capsys, tmp_path):
    p = tmp_path / "random.bin"
    p.write_bytes(bytes(random.Random(7).randrange(256) for _ in range(300)))
    code, out, err = run(capsys, "reconstruct", str(p), "--codomain", "symbol")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_map_from_tree_refuses_oversized_maps(capsys, tmp_path):
    assert comb(229, 3) <= MAX_MAP_ROWS < comb(230, 3)
    for n in (230, 1200):
        p = tmp_path / f"caterpillar{n}.tree"
        p.write_text(caterpillar_text(n, "rooted"))
        out_path = tmp_path / "map.tsv"
        code, _, err = run(capsys, "map-from-tree", str(p), "-o", str(out_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()


def test_farris_on_deep_unrooted_tree(capsys, tmp_path):
    p = tmp_path / "deep.tree"
    p.write_text(caterpillar_text(5000, "unrooted"))
    out_path = tmp_path / "rooted.tree"
    code, _, err = run(capsys, "farris", str(p), "--leaf", "1", "-o", str(out_path))
    assert code == 0, err
    rooted = parse_tree(out_path.read_text())
    assert rooted.flavor == "rooted" and rooted.tree.n_leaves == 4999


def test_bad_leaf_name_exit_code(capsys, tmp_path):
    p = tmp_path / "bad_leaf.tsv"
    p.write_text("x y z value\n2 3 4 A\n2 3 5 A\n2 4 5 A\n3 4 5 A\n"
                 "2 3 a(1 A\n2 4 a(1 A\n2 5 a(1 A\n3 4 a(1 A\n3 5 a(1 A\n4 5 a(1 A\n")
    code, out, err = run(capsys, "reconstruct", str(p), "--codomain", "symbol")
    assert code == 2
    assert out == ""
    assert err == "error: bad leaf name 'a(1'\n"


def test_reports_do_not_depend_on_string_hashing(tmp_path, locally_consistent_map):
    """Sets of symbols, multisets and triplets iterate in hash order; every
    report must read the same under every PYTHONHASHSEED."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from trisym import ROOTED, UNROOTED, collapse_to_discriminating, three_way_from_unrooted
    from test_trees import random_labelled_tree

    def mutant(d):
        text = save_three_way_map(d).splitlines()
        x, y, z, v = text[3].split()
        text[3] = f"{x} {y} {z} {'A' if v != 'A' else 'B'}"
        return "\n".join(text) + "\n"

    maps = {}
    for n in (6, 9):
        rooted = three_way_from_rooted(collapse_to_discriminating(
            random_labelled_tree(n, n, ROOTED, ("A", "B", "C"))))
        unrooted = three_way_from_unrooted(collapse_to_discriminating(
            random_labelled_tree(n, n - 1, UNROOTED, ("A", "B", "C"))))
        maps[f"multiset-{n}"] = save_three_way_map(rooted)
        maps[f"symbol-{n}"] = save_three_way_map(unrooted)
        maps[f"symbol-mutant-{n}"] = mutant(unrooted)
    maps["multiset-bad"] = save_three_way_map(locally_consistent_map)
    runs = []
    for name, text in maps.items():
        path = tmp_path / f"{name}.tsv"
        path.write_text(text)
        codomain = name.split("-")[0]
        for fmt in ("text", "json"):
            runs.append(["reconstruct", str(path), "--codomain", codomain, "--format", fmt])
        if codomain == "multiset":
            runs.append(["check", str(path), "--conditions", "P"])
        else:
            runs.append(["check", str(path), "--conditions", "M", "--format", "json"])
        if name.endswith("-6") or name == "multiset-bad":
            runs.append(["cross-validate", str(path), "--codomain", codomain])
    script = ("from trisym.cli import main\n"
              f"for argv in {runs!r}:\n"
              "    print('$', *argv[:1], main(argv))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert outs[0].count("$ ") == len(runs)
    assert outs[0].count("oracle: ") == 4 and outs[0].count('"kind": "M1"') > 1
    assert outs[0] == outs[1]


def test_the_cached_parser_answers_like_a_fresh_one(capsys, tmp_path, rooted_tree_file,
                                                    unrooted_tree_file, bad_map_file):
    """make_parser is built once per process; successive in-process calls
    of different subcommands, bad arguments among them, give the stdout,
    stderr and exit code of calls that each build a new parser."""
    from trisym import cli

    rooted_map, unrooted_map = str(tmp_path / "rooted.tsv"), str(tmp_path / "unrooted.tsv")
    calls = [
        ["map-from-tree", rooted_tree_file, "-o", rooted_map],
        ["map-from-tree", unrooted_tree_file, "-o", unrooted_map],
        ["check", rooted_map, "--conditions", "P"],
        ["check", bad_map_file, "--conditions", "P", "--format", "json"],
        ["check", unrooted_map, "--conditions", "M"],
        ["reconstruct", bad_map_file, "--codomain", "multiset"],
        ["reconstruct", unrooted_map, "--codomain", "symbol", "--format", "json"],
        ["farris", unrooted_tree_file, "--leaf", "1"],
        ["census", "--leaves", "4", "--symbols", "2", "--flavor", "rooted"],
        ["cross-validate", rooted_map, "--codomain", "multiset"],
        ["check", rooted_map],
        ["census", "--leaves", "x", "--symbols", "2", "--flavor", "rooted"],
        ["no-such-command"],
    ]

    def answers(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli.make_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as err:
                code = err.code
            got = capsys.readouterr()
            out.append((code, got.out, got.err))
        return out

    cached = answers(fresh=False)
    assert cli.make_parser() is cli.make_parser()
    assert cached == answers(fresh=True)
    assert [code for code, _, _ in cached] == [0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 2, 2, 2]
