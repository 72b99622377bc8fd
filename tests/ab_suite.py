"""Time one suite pass of two source trees of the library against each other,
in one process.

    python tests/ab_suite.py BASE_SRC NEW_SRC [--pairs 100] [--points 100] [--peak]

BASE_SRC and NEW_SRC are directories that each hold an `rdibeams` package,
such as the `src` folder of two checkouts.  Both trees are imported, under
the package names `ab_base` and `ab_new`, and `verify.run_suite` passes
alternate between them, the first of each pair taken by each side in turn.
A slow spell of a shared machine then slows both sides of a pair alike,
where two separate benchmark runs would each see a different spell.

Prints each side's median pass time, the median of the per-pair ratios
new / base, the pairs that the new tree won, and whether the two trees'
last reports were equal.  With --peak, each side then runs one more pass
under tracemalloc, after the timed pairs, whose times it leaves alone, and
its traced peak is printed.  pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


def load(src: str, name: str, module: str = "verify"):
    """The `rdibeams` package under `src`, imported as `name` (once per
    name), and its module `module`."""
    if name not in sys.modules:
        root = Path(src).resolve() / "rdibeams"
        spec = importlib.util.spec_from_file_location(
            name, root / "__init__.py", submodule_search_locations=[str(root)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.{module}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--peak", action="store_true",
                        help="print each side's traced peak of one pass")
    args = parser.parse_args(argv)
    sides = {side: load(src, f"ab_{side}")
             for side, src in (("base", args.base), ("new", args.new))}
    times = {side: [] for side in sides}
    reports = {}
    for side, verify in sides.items():  # a warm-up pass each, untimed
        verify.run_suite(points=args.points)
    for i in range(args.pairs):
        for side in (("base", "new") if i % 2 == 0 else ("new", "base")):
            t0 = time.perf_counter()
            reports[side] = sides[side].run_suite(points=args.points)
            times[side].append(time.perf_counter() - t0)
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    for side, ts in times.items():
        print(f"{side}: median {1e3 * statistics.median(ts):.1f} ms "
              f"over {len(ts)} passes")
    print(f"median ratio new/base: {statistics.median(ratios):.3f}")
    print(f"pairs won by new: {sum(r < 1.0 for r in ratios)} of {len(ratios)}")
    same = reports["base"].to_json() == reports["new"].to_json()
    print(f"last reports equal: {same}")
    for side, verify in sides.items() if args.peak else ():
        tracemalloc.start()
        verify.run_suite(points=args.points)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{side}: traced peak {peak / 2 ** 20:.2f} MiB")


if __name__ == "__main__":
    main()
