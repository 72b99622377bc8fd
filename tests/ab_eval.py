"""Time `rdibeams eval` map requests of two source trees of the library
against each other, in one process.

    python tests/ab_eval.py BASE_SRC NEW_SRC [--rounds 40] [--grid 8]

BASE_SRC and NEW_SRC are directories that each hold an `rdibeams` package,
such as the `src` folder of two checkouts.  Both trees are imported, as
`tests/ab_suite.py` does, and rounds of `cli.main` map requests alternate
between them, the first of each pair of rounds taken by each side in turn.
A round is one map per default spec of `verify.default_specs()` (all seven
families) in csv and one in jsonl, each on the same grid x grid transverse
points at one t and z, written to a temporary directory.

Prints each side's median time per map, the median of the per-pair ratios
new / base, the pairs that the new tree won, and whether the two trees'
last maps were the same bytes.  pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from pathlib import Path

from ab_suite import load


def requests(verify, cat, grid: int) -> list:
    """One argv per default spec and format, without --out."""
    out = []
    for group in verify.default_specs().values():
        for spec in group:
            argv = ["eval", "--family", spec.family.value, "--n", str(spec.n)]
            argv += (["--M", str(spec.M)] if spec.family in cat.SINGULAR_ON_AXIS
                     else ["--l", str(spec.l)])
            if spec.family in (cat.Family.FREE_BESSEL,
                               cat.Family.VOLKOV_BESSEL):
                argv += ["--pperp", repr(spec.p_perp)]
            if spec.is_dressed:
                wf = spec.waveform
                argv += ["--waveform", f"{wf.kind}:{wf.amplitude!r}",
                         "--omega", repr(spec.omega)]
            else:
                argv += ["--pz", repr(spec.p_z)]
            argv += ["--grid-t=0.7:0.7:1", f"--grid-x=0.5:5:{grid}",
                     f"--grid-y=0.5:5:{grid}", "--grid-z=0.4:0.4:1"]
            out += [argv + ["--format", fmt] for fmt in ("csv", "jsonl")]
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--grid", type=int, default=8)
    args = parser.parse_args(argv)
    sides = {side: load(src, f"ab_{side}", "cli")
             for side, src in (("base", args.base), ("new", args.new))}
    maps = requests(load(args.base, "ab_base", "verify"),
                    load(args.base, "ab_base", "catalog"), args.grid)
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: [str(Path(tmp) / f"{side}{i}") for i in range(len(maps))]
                 for side in sides}

        def run(side):
            main = sides[side].main
            for request, path in zip(maps, paths[side]):
                if main(request + ["--out", path]) != 0:
                    raise SystemExit(f"{side}: {' '.join(request)} failed")

        for side in sides:  # a warm-up round each, untimed
            run(side)
        for i in range(args.rounds):
            for side in (("base", "new") if i % 2 == 0 else ("new", "base")):
                t0 = time.perf_counter()
                run(side)
                times[side].append((time.perf_counter() - t0) / len(maps))
        same = all(Path(a).read_bytes() == Path(b).read_bytes()
                   for a, b in zip(paths["base"], paths["new"]))
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    for side, ts in times.items():
        print(f"{side}: median {1e3 * statistics.median(ts):.3f} ms a map "
              f"over {len(ts)} rounds of {len(maps)} maps")
    print(f"median ratio new/base: {statistics.median(ratios):.3f}")
    print(f"pairs won by new: {sum(r < 1.0 for r in ratios)} of {len(ratios)}")
    print(f"last maps the same bytes: {same}")


if __name__ == "__main__":
    main()
