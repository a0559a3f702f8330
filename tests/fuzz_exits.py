"""The fit fuzz and its exit table.

300 `random_tree` targets drawn from default_rng(1), each over 1 to 4
variables, on `FUZZ_BOXES` in turn, each run through `gsfit fit` at
--seed=1. `fuzz_exits.tsv` holds every target's index, arity, text and
exit code.

    PYTHONPATH=src python tests/fuzz_exits.py            # list the rows that differ
    PYTHONPATH=src python tests/fuzz_exits.py --write    # rewrite the table
    PYTHONPATH=src python tests/fuzz_exits.py --seed S   # exit counts at fit seed S

The check exits 1 when a row's text or exit code differs from the table.
With --seed, the targets run at that fit seed instead, and only their exit
counts are printed, since the table holds seed 1's exits.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from gsfit.cli import main
from helpers import random_tree

FUZZ_BOXES = [(-3, 3), (0.5, 3), (-1, 1), (1, 5)]
TABLE = Path(__file__).with_name("fuzz_exits.tsv")
HEADER = "index\tarity\ttarget\texit"


def draw(count: int = 300) -> list[tuple[int, str]]:
    """(arity, target text) of the first `count` fuzz targets."""
    rng = np.random.default_rng(1)
    drawn = []
    for _ in range(count):
        arity = int(rng.integers(1, 5))
        drawn.append((arity, random_tree(rng, arity).to_text()))
    return drawn


def fit_args(i: int, arity: int, text: str, seed: int = 1) -> list[str]:
    """The `gsfit fit` arguments of fuzz target i at fit seed `seed`."""
    lo, hi = FUZZ_BOXES[i % 4]
    return ["fit", f"--target={text}", f"--dims={arity}", f"--lo={lo}", f"--hi={hi}",
            f"--seed={seed}"]


def read_table() -> list[tuple[int, int, str, int]]:
    """The table's (index, arity, target, exit) rows."""
    lines = TABLE.read_text().splitlines()
    if lines[0] != HEADER:
        raise ValueError(f"{TABLE.name}: header {lines[0]!r}, expected {HEADER!r}")
    rows = []
    for line in lines[1:]:
        i, arity, text, code = line.split("\t")
        rows.append((int(i), int(arity), text, int(code)))
    return rows


def run_all(seed: int = 1) -> list[tuple[int, int, str, int]]:
    """Every fuzz target's (index, arity, target, exit) at fit seed `seed`,
    as the code runs now."""
    rows = []
    for i, (arity, text) in enumerate(draw()):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(fit_args(i, arity, text, seed))
        rows.append((i, arity, text, code))
    return rows


def exit_counts(rows) -> str:
    exits = Counter(r[3] for r in rows)
    return f"exits 0/2/3: {exits[0]}/{exits[2]}/{exits[3]}"


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--seed"] and len(args) == 2:
        print(f"seed {args[1]}: {exit_counts(run_all(int(args[1])))}")
        sys.exit(0)
    rows = run_all()
    if args == ["--write"]:
        TABLE.write_text("\n".join([HEADER, *("\t".join(map(str, r)) for r in rows)]) + "\n")
        sys.exit(0)
    table = read_table()
    differ = [(want, got) for want, got in zip(table, rows) if want != got]
    for want, got in differ:
        print(f"row {want[0]}: table {want[1:]}, now {got[1:]}")
    print(f"{len(rows)} rows, {len(differ)} differ; {exit_counts(rows)}")
    sys.exit(1 if differ or len(table) != len(rows) else 0)
