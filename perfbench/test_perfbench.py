"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import trisym.reconstruct
from trisym.maps import load_three_way_map

from perfbench import run, trace
from perfbench.workloads import WORKLOADS

# Small versions of each workload, so a request takes milliseconds.
SMALL_LEAVES = {"rooted-reconstruct": 7, "unrooted-reconstruct": 8,
                "rooted-check": 6, "small-cross-validate": 5}


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], leaves=SMALL_LEAVES[name], pairs=2)


def served(name: str, tmp_path: Path):
    workload = small(name)
    cases = workload.setup(3, tmp_path / "inputs")
    server = run.Server(workload, tmp_path)
    return workload, [server.serve(server.request(case)) for case in cases]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_files(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.setup(7, tmp_path / "a")
    again = workload.setup(7, tmp_path / "b")
    other = workload.setup(8, tmp_path / "c")
    assert len(first) == 2 * workload.pairs
    assert [c.path.read_bytes() for c in first] == [c.path.read_bytes() for c in again]
    assert [c.path.read_bytes() for c in first] != [c.path.read_bytes() for c in other]


@pytest.mark.parametrize("name", WORKLOADS)
def test_mutants_differ_from_their_clean_map_in_one_row(name, tmp_path):
    workload = small(name)
    cases = workload.setup(11, tmp_path)
    for clean, mutant in zip(cases[::2], cases[1::2]):
        assert clean.representable and not mutant.representable
        a = clean.path.read_text().splitlines()
        b = mutant.path.read_text().splitlines()
        changed = [(x, y) for x, y in zip(a, b) if x != y]
        assert len(a) == len(b) and len(changed) == 1
        assert tuple(changed[0][1].split()[:3]) == mutant.mutated
        if workload.all_symbols:
            for case in (clean, mutant):
                d = load_three_way_map(case.path.read_text(), "symbol")
                assert {s.name for s in d.image_symbols()} == {"A", "B", "C"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_counting_passes_give_identical_counts(name, tmp_path):
    workload = small(name)
    cases = workload.setup(5, tmp_path / "inputs")
    original = trisym.reconstruct.build
    first = run.count_pass(run.Server(workload, tmp_path), cases)[1]
    second = run.count_pass(run.Server(workload, tmp_path), cases)[1]
    assert first == second
    assert first.get("maps.value_calls", 0) > 0
    assert trisym.reconstruct.build is original


def _flip_label(tree_text: str) -> str:
    m = re.search(r"\)([ABC])", tree_text)
    other = "B" if m.group(1) != "B" else "C"
    return tree_text[:m.start(1)] + other + tree_text[m.end(1):]


def _corruptions(command: str, case, report: dict, code: int):
    """(report, exit code) pairs that a correct program never produces."""
    yield report, 3
    if command == "reconstruct":
        flipped = "not-representable" if case.representable else "representable"
        yield {**report, "verdict": flipped}, code
        if case.representable:
            yield {**report, "tree": _flip_label(report["tree"])}, code
    elif command == "check":
        if case.representable:
            fake = {"kind": "P1", "witness": ["x1", "x2", "x3", "x4", "x5"], "detail": ""}
            yield {**report, "violations": [fake]}, code
        else:
            yield {**report, "violations": []}, code
            bad = dict(report["violations"][0], witness=list(case.mutated[:2]))
            yield {**report, "violations": [bad]}, code
    else:
        verdicts = dict(report["verdicts"], oracle=not case.representable)
        yield {**report, "verdicts": verdicts}, code


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_check_catches_corrupted_results(name, tmp_path):
    workload, requests = served(name, tmp_path)
    assert run.count_failures(workload, requests) == 0
    command = workload.command[0]
    seen = 0
    for req in requests:
        report = json.loads(req.out.read_text())
        for bad_report, bad_code in _corruptions(command, req.case, report, req.code):
            assert workload.check(req.case, bad_code, json.dumps(bad_report)), bad_report
            seen += 1
    assert seen >= 2 * len(requests)
    requests[0].out.write_text("{}")
    requests[1].error = "RuntimeError: boom"
    assert run.count_failures(workload, requests) == 2


def test_request_times_take_self_time_and_skip_nested_repeats():
    spans = [
        ["cli.main", 0.0, 1.0, None, 7],
        ["conditions.check", 0.1, 0.9, 0, 7],
        ["conditions.check", 0.2, 0.8, 1, 7],
        ["conditions.p1", 0.3, 0.5, 2, 7],
    ]
    times = trace.request_times(spans)[7]
    assert times["conditions.check"] == pytest.approx(800)
    assert times["cli.self"] == pytest.approx(200)
    metrics = trace.layer_metrics({7: times}, [])
    assert metrics["conditions.p2p3_ms"] == pytest.approx(600)
    assert metrics["oracle.search_ms"] == 0.0


def test_traced_requests_record_spans_below_the_cli(tmp_path):
    workload = small("rooted-reconstruct")
    cases = workload.setup(2, tmp_path / "inputs")
    server = run.Server(workload, tmp_path)
    tracer = trace.Tracer()
    tracer.request = 0
    with tracer.installed():
        server.serve(server.request(cases[0]), main=tracer.wrap(trace.ROOT_SPAN, server.main))
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.load", "reconstruct.decide", "reconstruct.build",
            "reconstruct.verify", "maps.construct", "maps.eq"} <= names
    assert all(s[3] is not None for s in tracer.spans if s[0] != "cli.main")
    assert run.count_failures(workload, [server.serve(server.request(cases[0]))]) == 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rooted-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_calibration_scale_is_nominal_over_the_reference():
    from perfbench import calibrate

    nominal = calibrate.NOMINAL_MS / 1e3
    assert calibrate.scale(nominal) == pytest.approx(1.0)
    assert calibrate.scale(2 * nominal) == pytest.approx(0.5)
    assert calibrate.timed_reference() > 0


def test_calibration_reference_does_not_use_the_program():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from perfbench import calibrate; "
         "calibrate.reference(); print(sorted(m for m in sys.modules if 'trisym' in m))",
         str(Path(run.__file__).parent.parent)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_end_to_end_times_are_calibrated_by_the_reference_beside_each_request(tmp_path):
    from perfbench import calibrate

    nominal = calibrate.NOMINAL_MS / 1e3
    requests = [run.Request(None, tmp_path / "out", seconds=0.5 + 0.01 * i,
                            reference=nominal * (1 + i % 2)) for i in range(21)]
    values, note = run.end_to_end(requests, 1.0, [2 * nominal] * 3, False)
    # even-numbered requests ran at nominal speed, odd ones at half speed
    calibrated = sorted(r.seconds * 1e3 / (1 + i % 2) for i, r in enumerate(requests))
    assert values["latency_p50_ms"] == pytest.approx(calibrated[10])
    assert values["latency_tail_ms"] == pytest.approx(calibrated[10])
    assert values["maps_per_s"] == pytest.approx(21e3 / sum(calibrated))
    assert values["setup_s"] == pytest.approx(0.5)
    assert "uncalibrated latency_p50_ms=600" in note
