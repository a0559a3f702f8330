"""One set-up of the benchmark in a fresh interpreter, then exit.

Usage: python3 setup_probe.py SRC_DIR CASE [CASE ...]

Imports numpy and gsfit from SRC_DIR, parses the given cases' targets and
builds their oracles. run.py times this process from spawn to exit, which
is the set-up a fresh process pays before its first timed run.
"""

import sys


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import numpy  # noqa: F401  (import cost is part of set-up)
    import gsfit.bench as bench

    for no in argv[1:]:
        bench.get_case(int(no)).oracle()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
