"""Child launcher for traced fresh-interpreter requests: installs the
benchmark's span or count wrappers, runs the trisym CLI once, and writes
what it recorded to a JSON file.  Exits with the CLI's exit code.

    python3 perfbench/child.py span|count RESULT.json <trisym CLI arguments>
"""

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from trisym import cli
    from perfbench.trace import ROOT_SPAN, CallCounter, Tracer

    mode, result, *cli_args = argv
    if mode == "span":
        tracer = Tracer()
        with tracer.installed():
            code = tracer.wrap(ROOT_SPAN, cli.main)(cli_args)
        record = {"spans": tracer.spans}
    elif mode == "count":
        counter = CallCounter()
        with counter.installed():
            code = cli.main(cli_args)
        record = {"counts": dict(counter.counts)}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
