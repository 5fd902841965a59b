"""Run the `shimony` CLI with the benchmark's tracer installed.

Usage: python perfbench/traced_cli.py SPANS_JSON ARGS...

Behaves like `python -m shimony.cli ARGS...` and, on exit, writes the
recorded spans and counters to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from shimony import cli

    try:
        return cli.main(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
