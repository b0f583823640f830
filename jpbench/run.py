"""Benchmark entry point for the jointparse package.

Run from the repository root:

    python3 jpbench/run.py --workload train-short --seed 1 --seconds 25 --trace 0

It prints a human-readable report and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is imported from ``src/`` next to this directory; without it the
script exits with status 2 and prints no result.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    if not os.path.isfile(os.path.join(SRC, "jointparse", "cli.py")):
        print(f"jpbench: no jointparse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402 - needs the source path above

    return workloads.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
