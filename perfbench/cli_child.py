"""Run one ``cpspectra`` CLI command under the span tracer.

Usage: python3 perfbench/cli_child.py SPANS_FILE [cpspectra arguments...]

The traced ``cli_oneshot`` run starts this script in place of
``python -m cpspectra.cli``; the spans of the command are written to
SPANS_FILE for the parent to merge.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import cpspectra.cli

    try:
        return cpspectra.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
