"""Run one ``stiefelmean`` CLI command with the benchmark's tracer installed.

    python3 perfbench/traced_child.py STATE_JSON OP_ID <command> [args...]

The command runs exactly as ``python -m stiefelmean <command> ...`` would;
the tracer's aggregates and span rows are written to ``STATE_JSON`` for the
parent benchmark process to merge. The exit code is the command's.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import stiefelmean.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    state_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    with tracer.installed(), tracer.span("cli.main"):
        code = stiefelmean.cli.main(argv)
    tracer.measure_allocs()
    state = tracer.state()
    state["main_ns"] = tracer.total("cli.main")
    Path(state_path).write_text(json.dumps(state))
    return code


if __name__ == "__main__":
    sys.exit(main())
