"""Compare what `rdibeams verify` and `rdibeams eval` print for two source
trees of the library, case by case.

    python tests/ab_reports.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are directories that each hold an `rdibeams` package,
such as the `src` folder of two checkouts.  Each case runs the CLI once per
tree, in a subprocess with that tree alone on PYTHONPATH, and compares the
exit codes, stdout and stderr.  The cases are `verify` at 100 points (three
seeds and both negative controls), at 1000 points (four seeds), on two check
subsets whose reads take `verify._union`'s mask branch and on one that
applies to no selected family (a usage error); an `eval` map of every family
in csv and in jsonl, with one pulse-dressed map more; and maps that reach
each branch of the map writer: one of no row, one of one row, a 100 x 100
stationary map and one whose t and z vary.

Prints `same` or `DIFF` and the case, one line each, and exits 1 on any
difference.  pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

# every map's points: 12 x 12 in x and y, at t and z off zero so that a
# dressing's shift and phase show
_GRID = ["--grid-t=0.7:0.7:1", "--grid-x=0.5:5:12", "--grid-y=0.5:5:12",
         "--grid-z=0.4:0.4:1"]
_MAPS = {
    "free-bessel": ["--l", "1", "--pperp", "0.8", "--pz", "0.3"],
    "uniform-b": ["--n", "1", "--l", "1", "--pz", "0.4"],
    "uniform-b-split": ["--n", "1", "--l", "1", "--pz", "0.2"],
    "radial-b": ["--n", "1", "--M", "2", "--pz", "0.3"],
    "volkov-bessel": ["--l", "1", "--waveform", "circular:0.3",
                      "--omega", "1.1"],
    "redmond": ["--n", "1", "--waveform", "linear:0.25", "--omega", "0.9"],
    "radial-b-laser": ["--n", "1", "--M", "1", "--waveform", "circular:0.3",
                       "--omega", "1.2"],
}
CASES = [
    *(["verify", "--points", "100", "--seed", seed]
      for seed in ("20240801", "1", "7")),
    *(["verify", "--points", "100", "--negative-control", control]
      for control in ("scale-potential", "perturb-profile")),
    *(["verify", "--points", "1000", "--seed", seed]
      for seed in ("1", "2", "3", "99")),
    ["verify", "--points", "50", "--seed", "3",
     "--check", "continuity", "--check", "inversion"],
    ["verify", "--family", "redmond", "--check", "fields", "--check", "gauge"],
    ["verify", "--family", "uniform-b", "--check", "volkov"],  # no record
    *(["eval", "--family", family, *args, *_GRID, "--format", fmt]
      for family, args in _MAPS.items() for fmt in ("csv", "jsonl")),
    ["eval", "--family", "redmond", "--n", "2", "--waveform", "pulse:0.2",
     *_GRID],
    # each branch of the map writer: no row (every point inside
    # --axis-exclude), one row (every column constant), a 100 x 100
    # stationary map (many zero columns, several blocks of rows), and a map
    # whose t and z vary
    ["eval", "--family", "uniform-b", "--n", "1", *_GRID,
     "--axis-exclude", "100"],
    *(["eval", "--family", "radial-b-laser", "--n", "1", "--M", "1",
       "--waveform", "linear:0.25", "--grid-x=0.9:0.9:1", "--grid-y=1.3:1.3:1",
       "--format", fmt] for fmt in ("csv", "jsonl")),
    *(["eval", "--family", "uniform-b", "--n", "0", "--grid-x=0.5:5:100",
       "--grid-y=0.5:5:100", "--format", fmt] for fmt in ("csv", "jsonl")),
    *(["eval", "--family", "volkov-bessel", "--l", "1", "--waveform",
       "circular:0.3", "--grid-t=0:2:4", "--grid-x=0.5:5:6",
       "--grid-y=0.5:5:6", "--grid-z=-1:1:3", "--format", fmt]
      for fmt in ("csv", "jsonl")),
]


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def package_root(src: str) -> Path:
    """Where a subprocess with `src` on its path imports `rdibeams` from."""
    out = subprocess.run(
        [sys.executable, "-c", "import rdibeams; print(rdibeams.__file__)"],
        capture_output=True, text=True, check=True, env=_env(src)).stdout
    return Path(out.strip()).resolve().parents[1]


def run(src: str, case: list) -> tuple:
    """The exit code, stdout and stderr of the CLI of the tree `src`."""
    proc = subprocess.run([sys.executable, "-m", "rdibeams.cli", *case],
                          capture_output=True, env=_env(src))
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    for src in (args.base, args.new):
        if package_root(src) != Path(src).resolve():
            parser.error(f"{src} holds no rdibeams package")
    differ = False
    for case in CASES:
        same = run(args.base, case) == run(args.new, case)
        differ |= not same
        print("same" if same else "DIFF", " ".join(case), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
