"""Time one cold set-up of a workload in a fresh process: importing the
library, building the workload's specs, and the first evaluation of each spec
(which fills the normalization cache).  Prints the set-up's wall seconds and
its seconds at reference speed (see speed.py).

    python3 bench/setup_probe.py <workload>
"""
import sys
from pathlib import Path

from speed import SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent


def setup(name):
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import workloads

    workload = workloads.WORKLOADS[name](BENCH_DIR / "out" / name)
    workloads.first_evaluations(workload.specs())


with SpeedSampler() as sampler:
    _, WALL, AT_REF = sampler.timed(lambda: setup(sys.argv[1]))
print(repr(WALL), repr(AT_REF))
