"""Inputs whose size is named, not given: a sparse map file whose few rows
name many leaves, and a census count far past the enumeration bounds.  Each
is refused as malformed input, exit 2 with one `error:` line, before
anything in proportion to the named size is allocated.  Allocations are
measured with tracemalloc: a slot list per subset of 600 leaves' triples
would be about 290 MB, and 200,000 symbols several tens of MB."""

import tracemalloc

import pytest

from trisym.cli import EXIT_BAD_INPUT, main

PEAK_LIMIT = 4 * 2**20  # bytes; refusing any input here takes under 3 MB


def _run_traced(capsys, argv):
    """main(argv)'s exit code, stdout, stderr and tracemalloc peak."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    return code, out, err, peak


@pytest.mark.parametrize("command", [["reconstruct", "--codomain", "symbol"],
                                     ["check", "--conditions", "M"]])
def test_a_sparse_three_way_file_is_refused_in_bounded_memory(capsys, tmp_path, command):
    """200 rows, each naming three new leaves: the ground has 600 leaves and
    the map 35,820,200 triples, of which the first missing is the second
    in combinations order."""
    names = [f"t{i}" for i in range(600)]
    rows = "".join(f"{x} {y} {z} A\n" for x, y, z in zip(*[iter(names)] * 3))
    path = tmp_path / "sparse.tsv"
    path.write_text("x y z value\n" + rows)
    code, out, err, peak = _run_traced(capsys, [command[0], str(path), *command[1:]])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == f"error: missing value for triple {sorted(names[:2] + names[3:4])}\n"
    assert peak < PEAK_LIMIT


def test_a_sparse_two_way_file_is_refused_in_bounded_memory(capsys, tmp_path):
    """4,000 rows, each naming two new leaves: the ground has 8,000 leaves
    and the map 31,996,000 pairs, of which the first missing is the second
    in combinations order."""
    names = [f"p{i}" for i in range(8000)]
    rows = "".join(f"{x} {y} A\n" for x, y in zip(*[iter(names)] * 2))
    path = tmp_path / "sparse.tsv"
    path.write_text("x y value\n" + rows)
    code, out, err, peak = _run_traced(capsys, ["check", str(path), "--conditions", "U"])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == f"error: missing value for pair {sorted([names[0], names[2]])}\n"
    assert peak < PEAK_LIMIT


@pytest.mark.parametrize("leaves, symbols, message", [
    ("3", "200000", "symbol sets of 1 to 3 symbols are supported"),
    ("200000", "3", "leaf sets of 1 to 6 leaves are supported"),
    ("200000", "200000", "leaf sets of 1 to 6 leaves are supported"),
])
def test_census_refuses_counts_past_its_bounds_in_bounded_memory(capsys, leaves, symbols,
                                                                 message):
    code, out, err, peak = _run_traced(capsys, ["census", "--leaves", leaves, "--symbols",
                                                symbols, "--flavor", "rooted"])
    assert (code, out, err) == (EXIT_BAD_INPUT, "", f"error: {message}\n")
    assert peak < PEAK_LIMIT
