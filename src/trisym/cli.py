"""Command-line surface: tree-to-map conversion, condition checking,
reconstruction, leaf re-rooting, enumeration census, and cross-validation.

Exit codes are a stable contract: 0 success/clean/agreement, 1 violations
found or map not representable, 2 malformed input, 3 cross-validation
disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Optional, Sequence

from . import conditions, maps, oracle, reconstruct, trees
from .symbols import SymbolError, SymbolTable

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_DISAGREE = 3

# map-from-tree refuses, as malformed input, a tree whose three-way map would
# have more rows than this.  C(n,3) first exceeds it at 230 leaves.  A map
# costs time and memory in proportion to its rows: the 1.3 million rows of a
# 200-leaf tree took about 9 s and 360 MiB.
MAX_MAP_ROWS = 2_000_000


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_map(path: str, codomain: str):
    text = _read(path)
    if codomain == "two-way":
        return maps.load_two_way_map(text)
    kind = maps.KIND_MULTISET if codomain == "multiset" else maps.KIND_SYMBOL
    return maps.load_three_way_map(text, kind)


def cmd_map_from_tree(args: argparse.Namespace) -> int:
    lt = trees.parse_tree(_read(args.input))
    rows = math.comb(lt.tree.n_leaves, 3)
    if rows > MAX_MAP_ROWS:
        raise maps.MapError(f"a tree on {lt.tree.n_leaves} leaves has a map of {rows} rows, "
                            f"above the limit of {MAX_MAP_ROWS}")
    if lt.flavor == trees.ROOTED:
        d = maps.three_way_from_rooted(lt)
    else:
        d = maps.three_way_from_unrooted(lt)
    _write(args.output, maps.save_three_way_map(d))
    return EXIT_OK


# One violation of check's JSON report: kind, witness names, detail.
_VIOLATION_JSON = ('    {{\n      "kind": {},\n      "witness": [\n        {}\n      ],\n'
                   '      "detail": {}\n    }}')


def check_report_json(family: str, violations: Sequence[conditions.Violation]) -> str:
    """check's JSON report: the text of json.dumps({"conditions": family,
    "violations": [{"kind", "witness", "detail"} per violation]}, indent=2)
    plus a newline.  json.dumps with an indent encodes in pure Python; here
    each violation is one format call, and strings are escaped by the C
    function json.dumps uses under ensure_ascii.  Witnesses are never empty."""
    items = ",\n".join([
        _VIOLATION_JSON.format(_json_string(v.kind),
                               ",\n        ".join(map(_json_string, v.witness)),
                               _json_string(v.detail))
        for v in violations])
    body = f"[\n{items}\n  ]" if items else "[]"
    return f'{{\n  "conditions": {_json_string(family)},\n  "violations": {body}\n}}\n'


def cmd_check(args: argparse.Namespace) -> int:
    family = args.conditions
    if family == "U":
        d = _load_map(args.input, "two-way")
        violations = conditions.check_ultrametric(d)
    elif family == "M":
        d = _load_map(args.input, "symbol")
        violations = conditions.check_tree_map(d, near=reconstruct.near_tree(d))
    else:
        d = _load_map(args.input, "multiset")
        violations = conditions.check_three_way_ultrametric(d, near=reconstruct.near_tree(d))
    if args.format == "json":
        report = check_report_json(family, violations)
    else:
        lines = [v.text() for v in violations] or ["clean"]
        report = "\n".join(lines) + "\n"
    _write(args.output, report)
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_reconstruct(args: argparse.Namespace) -> int:
    d = _load_map(args.input, args.codomain)
    if args.codomain == "symbol":
        outcome = reconstruct.decide_tree_map(d)
    else:
        outcome = reconstruct.decide_ultrametric(d)
    if args.format == "json":
        payload = {"verdict": outcome.verdict,
                   "failure_stage": outcome.failure_stage,
                   "unique": outcome.unique,
                   "detail": outcome.detail,
                   "tree": trees.tree_to_text(outcome.tree) if outcome.tree else None}
        report = json.dumps(payload, indent=2) + "\n"
    else:
        report = outcome.text()
    _write(args.output, report)
    return EXIT_OK if outcome.representable else EXIT_NEGATIVE


def cmd_farris(args: argparse.Namespace) -> int:
    from .farris import farris_transform

    text = _read(args.input)
    head = next((ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#")), "")
    if head in (trees.ROOTED, trees.UNROOTED):
        lt = trees.parse_tree(text)
        if lt.flavor != trees.UNROOTED:
            raise trees.TreeError("the leaf re-rooting transform expects an unrooted tree")
        result = farris_transform(lt, args.leaf)
        _write(args.output, trees.tree_to_text(result.rooted))
    else:
        d = maps.load_three_way_map(text, maps.KIND_SYMBOL)
        projected = maps.farris_project(d, args.leaf)
        _write(args.output, maps.save_two_way_map(projected))
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    # at most one leaf and one symbol past the bounds, which the spec refuses
    table = SymbolTable([f"s{i}" for i in range(min(args.symbols, oracle.MAX_SYMBOLS + 1))])
    spec = oracle.EnumerationSpec(
        tuple(str(i + 1) for i in range(min(args.leaves, oracle.MAX_LEAVES + 1))),
        tuple(table),
        args.flavor,
        discriminating_only=not args.all_labellings,
    )
    counts = oracle.census(spec)
    counts["discriminating_only"] = not args.all_labellings
    if args.format == "json":
        _write(args.output, json.dumps(counts, indent=2) + "\n")
    else:
        lines = [f"{k}: {v}" for k, v in counts.items()]
        _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cross_validate(args: argparse.Namespace) -> int:
    d = _load_map(args.input, args.codomain)
    checker = conditions.representable_by_conditions(d)
    if args.codomain == "symbol":
        outcome = reconstruct.decide_tree_map(d)
    else:
        outcome = reconstruct.decide_ultrametric(d)
    verdicts = {"conditions": checker, "reconstruction": outcome.representable}
    if len(d.ground) <= oracle.MAX_LEAVES:
        verdicts["oracle"] = oracle.oracle_representable_three_way(d) is not None
    agree = len(set(verdicts.values())) == 1
    if args.format == "json":
        report = json.dumps({"verdicts": verdicts, "agree": agree}, indent=2) + "\n"
    else:
        lines = [f"{k}: {'representable' if v else 'not-representable'}"
                 for k, v in verdicts.items()]
        lines.append("agree" if agree else "DISAGREE")
        report = "\n".join(lines) + "\n"
    _write(args.output, report)
    return EXIT_OK if agree else EXIT_DISAGREE


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="trisym",
        description="Three-way symbolic maps on vertex-labelled phylogenetic trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-from-tree", help="tree file -> three-way map TSV")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_map_from_tree)

    p = sub.add_parser("check", help="map TSV -> condition violation report")
    p.add_argument("input")
    p.add_argument("--conditions", choices=("U", "M", "P"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="map TSV -> verdict plus tree")
    p.add_argument("input")
    p.add_argument("--codomain", choices=("symbol", "multiset"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("farris", help="re-root a tree or project a map through a leaf")
    p.add_argument("input")
    p.add_argument("--leaf", required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_farris)

    p = sub.add_parser("census", help="enumeration counts for small trees")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--symbols", type=int, required=True)
    p.add_argument("--flavor", choices=(trees.ROOTED, trees.UNROOTED), required=True)
    p.add_argument("--all-labellings", action="store_true",
                   help="count all labellings, not only discriminating ones")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("cross-validate",
                       help="checker vs reconstruction vs oracle agreement")
    p.add_argument("input")
    p.add_argument("--codomain", choices=("symbol", "multiset"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_cross_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (maps.MapError, trees.TreeError, SymbolError, oracle.EnumerationError,
            OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
