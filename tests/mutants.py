"""Count the single-entry mutants of the spinor lift and of the constant
Clifford tables that the standard suite catches.

    python tests/mutants.py [SRC]

SRC is a directory that holds an `rdibeams` package, such as the `src`
folder of a checkout (default: this checkout's).  The tables are the lift's
signed gather (`spinors._SIGN`, `spinors._GATHER`), the d-slash and trace
tables of `inversion` (`_SLASH`, `_TRACES`) and the signs of
`sta.from_vector` (`sta._VECTOR_SIGN`).  Each mutant changes one entry of
one table: a sign or coefficient negated, or a column index moved on to the
next column (the last to the first).  The table is rebound on its module
for one `verify.run_suite(points=20, seed=1)` pass and the original
restored in a `finally`, so that no mutant outlives its pass.

Prints each mutant and the rows that fail under it (`-` for none, the
exception's name for a pass that raised), then how many of each table's
mutants fail a row.  pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import importlib
from pathlib import Path

import numpy as np

from ab_suite import load

# module -> its tables; a table is an array of signs (negated), an array of
# columns (moved on) or a `sta.signed_gather` pair (column, coefficient)
TABLES = {
    "spinors": ("_SIGN", "_GATHER"),
    "inversion": ("_SLASH", "_TRACES"),
    "sta": ("_VECTOR_SIGN",),
}


def _one_entry(values, index, column: bool):
    # a copy of values with the entry at index negated, or, for a column
    # table, moved on to the next of its columns
    out = values.copy()
    out[index] = (out[index] + 1) % (values.max() + 1) if column \
        else -out[index]
    return out


def mutants(table):
    """(label, mutated table) for every entry of table, one at a time."""
    if isinstance(table, tuple):
        column, coefficient = table
        for index in np.ndindex(coefficient.shape):
            yield (f"coefficient{list(index)} negated",
                   (column, _one_entry(coefficient, index, False)))
        for index in np.ndindex(column.shape):
            yield (f"column{list(index)} moved",
                   (_one_entry(column, index, True), coefficient))
        return
    column = table.dtype.kind == "i"
    for index in np.ndindex(table.shape):
        yield (f"{list(index)} {'moved' if column else 'negated'}",
               _one_entry(table, index, column))


def failing_rows(verify) -> str:
    """The rows with a failing record in one suite pass, in table order."""
    try:
        report = verify.run_suite(points=20, seed=1)
    except Exception as exc:  # a mutant that breaks the pass is caught
        return type(exc).__name__
    failed = {r.name for r in report.records if not r.passed}
    return " ".join(n for n in verify.CHECK_NAMES if n in failed) or "-"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?",
                        default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    verify = load(args.src, "mutated")
    if failing_rows(verify) != "-":
        raise SystemExit("the unmutated tree fails a row")
    kills = {}
    for name, attrs in TABLES.items():
        module = importlib.import_module(f"mutated.{name}")
        for attr in attrs:
            real = getattr(module, attr)
            caught = total = 0
            for label, table in mutants(real):
                setattr(module, attr, table)
                try:
                    rows = failing_rows(verify)
                finally:
                    setattr(module, attr, real)
                print(f"{name}.{attr} {label}: {rows}")
                caught += rows != "-"
                total += 1
            kills[f"{name}.{attr}"] = (caught, total)
    for table, (caught, total) in kills.items():
        print(f"{table}: {caught} of {total} caught")
    print(f"all: {sum(c for c, _ in kills.values())} of "
          f"{sum(t for _, t in kills.values())} caught")


if __name__ == "__main__":
    main()
