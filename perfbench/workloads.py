"""The four benchmark workloads: what each generates, the command line it
sends for one request, and the check of one request's output against the
known answer.

Every workload is half clean maps of random discriminating trees over
A, B, C and half one-cell near-miss mutants of them.  The leaf counts are
part of the workload definition: later changes are compared at these sizes.
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from trisym.trees import ROOTED, UNROOTED, TreeError, labelled_isomorphic, parse_tree

from .gen import Case, generate

REPRESENTABLE = "representable"
NOT_REPRESENTABLE = "not-representable"


@dataclass(frozen=True)
class Workload:
    name: str
    flavor: str
    leaves: int
    pairs: int  # clean maps in the pool, each with one mutant
    command: tuple[str, ...]  # CLI subcommand and options after the input path
    fresh_process: bool = False  # each request in a new interpreter
    all_symbols: bool = False

    def setup(self, seed: int, outdir: Path) -> list[Case]:
        return generate(self.flavor, self.leaves, self.pairs, f"{self.name}:{seed}",
                        outdir, all_symbols=self.all_symbols)

    def argv(self, case: Case, out: Path) -> list[str]:
        return [self.command[0], str(case.path), *self.command[1:], "-o", str(out)]

    def check(self, case: Case, code: Optional[int], text: str) -> Optional[str]:
        """None when the request's exit code and report match the known
        answer, else what is wrong."""
        want_code = 0 if case.representable or self.command[0] == "cross-validate" else 1
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            report = json.loads(text)
            return _CHECKS[self.command[0]](case, report)
        except (ValueError, KeyError, TypeError, TreeError) as err:
            return f"unreadable report: {type(err).__name__}: {err}"


def _check_reconstruct(case: Case, report: dict) -> Optional[str]:
    want = REPRESENTABLE if case.representable else NOT_REPRESENTABLE
    if report["verdict"] != want:
        return f"verdict {report['verdict']}, expected {want}"
    if not case.representable:
        return None if report["tree"] is None else "tree reported for a negative verdict"
    if not labelled_isomorphic(parse_tree(report["tree"]), case.expected_tree):
        return "reconstructed tree differs from the generating tree"
    return None


def _check_conditions(case: Case, report: dict) -> Optional[str]:
    violations = report["violations"]
    if case.representable:
        return None if not violations else f"{len(violations)} violations on a clean map"
    if not violations:
        return "no violation reported for a mutant"
    for v in violations:
        if not set(case.mutated) <= set(v["witness"]):
            return f"witness {v['witness']} misses the mutated triple {case.mutated}"
    return None


def _check_cross_validate(case: Case, report: dict) -> Optional[str]:
    want = {route: case.representable
            for route in ("conditions", "reconstruction", "oracle")}
    if report["verdicts"] != want or report["agree"] is not True:
        return f"verdicts {report['verdicts']}, expected {want}"
    return None


_CHECKS = {
    "reconstruct": _check_reconstruct,
    "check": _check_conditions,
    "cross-validate": _check_cross_validate,
}

# A pool holds about as many maps as one run sends requests, so a run's
# median covers many different trees rather than a few repeated ones.
WORKLOADS = {w.name: w for w in (
    Workload("rooted-reconstruct", ROOTED, 24, 12,
             ("reconstruct", "--codomain", "multiset", "--format", "json")),
    Workload("unrooted-reconstruct", UNROOTED, 48, 12,
             ("reconstruct", "--codomain", "symbol", "--format", "json")),
    Workload("rooted-check", ROOTED, 10, 24,
             ("check", "--conditions", "P", "--format", "json")),
    Workload("small-cross-validate", UNROOTED, 6, 16,
             ("cross-validate", "--codomain", "symbol", "--format", "json"),
             fresh_process=True, all_symbols=True),
)}
