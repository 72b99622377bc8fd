"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They check that the counts later changes may cite repeat exactly for a
seed, that the zero-call predictions of the per-layer table hold, that the
tracer puts back everything it patched, and that the benchmark refuses to
report without the library sources.
"""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402
from rdibeams.waveforms import Waveform  # noqa: E402

SEED = 7
# span name -> count cited by name in the per-layer table
REPEATED_COUNTS = {
    "catalog.spinor_eval": "catalog.spinor_evals",
    "numerics.partial4": "numerics.partial4.calls",
    "spinors.observables": "spinors.observables.calls",
    "waveforms.gauge_integral": "waveforms.gauge_integral.calls",
    "inversion.invert": "inversion.invert.calls",
    "cli.main": "cli.main.calls",
}
PREDICTED_ZERO = {
    "verify-standard": ("numerics.rk4.steps", "cli.main.calls"),
    "eval-maps": ("numerics.partial4.calls", "inversion.invert.calls",
                  "numerics.rk4.steps"),
    "streamlines": ("numerics.partial4.calls", "inversion.invert.calls",
                    "waveforms.gauge_integral.calls", "cli.main.calls"),
}


def traced_counts(name: str, work_dir: Path) -> dict:
    workload = workloads.WORKLOADS[name](work_dir)
    with tracing.Tracer() as tracer:
        out = workload.run(SEED, n_ops=workload.trace_ops)
    assert out.gates_ok, out.failures
    per = tracer.per_name()
    counts = {key: per.get(span, (0,))[0] for span, key in REPEATED_COUNTS.items()}
    counts["numerics.rk4.steps"] = out.counts["rk4_steps"]
    return counts


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def two_runs(request, tmp_path_factory):
    work_dir = tmp_path_factory.mktemp(request.param)
    return request.param, [traced_counts(request.param, work_dir) for _ in range(2)]


def test_counts_repeat_exactly_for_a_seed(two_runs):
    _, (first, second) = two_runs
    assert first == second


def test_zero_call_predictions(two_runs):
    name, (counts, _) = two_runs
    for key in PREDICTED_ZERO[name]:
        assert counts[key] == 0, key
    owned = {"verify-standard": "numerics.partial4.calls",
             "eval-maps": "cli.main.calls",
             "streamlines": "numerics.rk4.steps"}[name]
    assert counts[owned] > 0


def _bindings():
    """Every attribute of the library's modules and the Waveform methods."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "rdibeams" or mod_name.startswith("rdibeams."):
            found.update({(mod_name, k): v for k, v in vars(module).items()})
    found.update({("Waveform", k): v for k, v in vars(Waveform).items()})
    return found


def test_tracer_and_step_counter_restore_every_attribute():
    before = _bindings()
    with tracing.Tracer():
        with tracing.counting_rk4_steps():
            assert _bindings() != before
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_report_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
         "--workload", "eval-maps", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
