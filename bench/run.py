"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-standard --seed 1 --seconds 30 --trace 0

With --trace 0 the run is timed and untraced and reports the end-to-end
metrics; with --trace 1 it runs a fixed amount of the workload twice, once
untraced and once traced, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when a
result was printed, and 2 when the library sources are missing.
"""
import os

# One BLAS/OpenMP thread: all load comes from this one process and thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MAX_SELF_GAP = 1e-3  # per-layer self times must sum to the traced wall time

# the checks of verify.CHECK_TOLERANCES and the function that computes each;
# "constraints" comes out of the same computation as "inversion"
CHECK_SPANS = {
    "dirac": "verify.dirac_residual",
    "continuity": "verify.continuity_residual",
    "gauge": "verify.lorentz_gauge_residual",
    "inversion": "verify.inversion_agreement",
    "maxwell": "verify.maxwell_residual",
    "kinematics": "verify.kinematics_check",
    "ode": "inversion.radial_ode_residual",
    "circularity": "inversion.circularity_residual",
    "volkov": "verify.volkov_equivalence",
    "fields": "verify.field_invariants",
    "nullrotor": "verify.null_rotation_block_residual",
}

PRINTED_ONLY = ("waveforms.self_s", "inversion.self_s", "cli.self_s")

# each workload's own names for its wall-clock numbers, printed beside the
# reference-speed metrics of the result JSON
WORKLOAD_NAMES = {
    "verify-standard": {"op_p50_ms": ("verify.suite_s", 1e-3, "s"),
                        "work_per_s": ("verify.records_per_s", 1.0, "1/s")},
    "eval-maps": {"op_p50_ms": ("eval.map_p50_ms", 1.0, "ms"),
                  "op_p90_ms": ("eval.map_p90_ms", 1.0, "ms"),
                  "work_per_s": ("eval.points_per_s", 1.0, "1/s")},
    "streamlines": {"op_p50_ms": ("stream.spec_p50_ms", 1.0, "ms"),
                    "work_per_s": ("stream.steps_per_s", 1.0, "1/s")},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-standard", "eval-maps", "streamlines"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, timeout=10,
            capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit}


def setup_seconds(workload: str) -> list:
    """(wall seconds, seconds at reference speed) of a cold set-up of
    `workload`, once per fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            cwd=REPO, capture_output=True, text=True, timeout=120, check=True)
        wall, at_ref = proc.stdout.split()[-2:]
        times.append((float(wall), float(at_ref)))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload, workloads) -> tuple:
    setup = setup_seconds(args.workload)
    workloads.first_evaluations(workload.specs())
    out = workload.run(args.seed, seconds=args.seconds)
    n, n_setup = len(out.latencies), len(setup)
    if n < 2:
        raise SystemExit(f"error: {n} operation(s) completed; "
                         + "; ".join(out.failures[:3]))

    def numbers(setup_s, lat):
        return {"setup_s": (statistics.median(setup_s), "s", n_setup),
                "op_p50_ms": (1e3 * statistics.median(lat), "ms", n),
                "op_p90_ms": (1e3 * statistics.quantiles(
                    lat, n=10, method="inclusive")[8], "ms", n),
                "work_per_s": (out.work / sum(lat), "1/s", n)}

    at_ref = numbers([s for _, s in setup], out.ref_latencies)
    wall = numbers([s for s, _ in setup], out.latencies)
    metrics = {"setup_s": at_ref["setup_s"],
               "peak_rss_mb": (peak_rss_mb(), "MB", 1),
               "op_p50_ref_ms": at_ref["op_p50_ms"],
               "work_per_ref_s": at_ref["work_per_s"]}
    # too few samples in most workloads, and too unsteady, to be bounded
    extra = {"op_p90_ref_ms": at_ref["op_p90_ms"]}
    extra.update({f"wall.{k}": v for k, v in wall.items()})
    extra["speed.vs_ref"] = (sum(out.ref_latencies) / sum(out.latencies), "frac", n)
    extra["fail_frac"] = (out.failed / max(out.attempted, 1), "frac", out.attempted)
    for key, (name, factor, unit) in WORKLOAD_NAMES[args.workload].items():
        extra[name] = (wall[key][0] * factor, unit, n)
    return out, out.gates_ok, metrics, extra


def per_layer(args, workload, workloads, tracing) -> tuple:
    from rdibeams import catalog

    normalization = catalog.normalization
    workloads.first_evaluations(workload.specs())
    # the same fixed work untraced, for the tracing overhead; each half
    # starts from an empty normalization cache, as a fresh process would
    normalization.cache_clear()
    t0 = time.perf_counter()
    ref = workload.run(args.seed, n_ops=workload.trace_ops)
    wall_ref = time.perf_counter() - t0
    normalization.cache_clear()
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        out = tracer.run_in_span(
            tracing.ROOT_SPAN,
            lambda: workload.run(args.seed, n_ops=workload.trace_ops))
        wall = time.perf_counter() - t0
    cache = normalization.cache_info()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{args.workload}.npz")

    per = tracer.per_name()
    calls = {name: v[0] for name, v in per.items()}
    total = {name: v[1] for name, v in per.items()}

    def layer(prefix, index):
        return sum(v[index] for name, v in per.items()
                   if name.split(".", 1)[0] == prefix)

    self_sum = sum(v[2] for v in per.values())
    gap = abs(self_sum - wall) / wall
    obs_calls = calls.get("spinors.observables", 0)
    m = {
        "numerics.partial4.calls": (calls.get("numerics.partial4", 0), "count"),
        "numerics.rk4.steps": (out.counts.get("rk4_steps", 0), "count"),
        "catalog.spinor_evals": (calls.get("catalog.spinor_eval", 0), "count"),
        "catalog.profile.calls": (calls.get("catalog.profile", 0), "count"),
        "catalog.normalization.hit_ratio": (
            cache.hits / max(cache.hits + cache.misses, 1), "ratio"),
        "spinors.observables.calls": (obs_calls, "count"),
        "spinors.observables.us": (
            1e6 * total.get("spinors.observables", 0.0) / max(obs_calls, 1), "us"),
        "waveforms.gauge_integral.calls": (
            calls.get("waveforms.gauge_integral", 0), "count"),
        "specialfn.calls": (layer("specialfn", 0), "count"),
        "sta.calls": (layer("sta", 0), "count"),
        "inversion.invert.calls": (calls.get("inversion.invert", 0), "count"),
        "inversion.singular_skips": (
            out.counts.get("inversion.singular_skips", 0), "count"),
        "verify.records": (out.counts.get("verify.records", 0), "count"),
        "verify.kinematics_excluded": (
            out.counts.get("verify.kinematics_excluded", 0), "count"),
        "cli.bytes_written": (out.counts.get("cli.bytes_written", 0), "bytes"),
        "cli.rows": (out.counts.get("cli.rows", 0), "count"),
    }
    for prefix in tracing.LAYERS + ("bench",):
        m[f"{prefix}.self_s"] = (layer(prefix, 2), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_frac"] = (wall / wall_ref - 1.0, "frac")
    m["trace.self_gap_frac"] = (gap, "frac")
    for check, span in CHECK_SPANS.items():
        m[f"verify.check.{check}_s"] = (total.get(span, 0.0), "s")
    # times that are exactly 0 wherever a workload never calls the layer are
    # printed, not put in the result JSON
    printed_only = {k: (v, unit, 1) for k, (v, unit) in m.items()
                    if k in PRINTED_ONLY or k.startswith("verify.check.")}
    metrics = {k: (v, unit, 1) for k, (v, unit) in m.items()
               if k not in printed_only}
    correct = ref.gates_ok and out.gates_ok and gap <= MAX_SELF_GAP
    if gap > MAX_SELF_GAP:
        out.failures.append(f"self times sum to {self_sum:.6f} s, traced wall "
                            f"{wall:.6f} s (gap {gap:.2e} > {MAX_SELF_GAP})")
    return out, correct, metrics, printed_only


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rdibeams" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rdibeams
    import tracing
    import workloads

    if not Path(rdibeams.__file__).resolve().is_relative_to(SRC):
        print(f"error: rdibeams imported from {rdibeams.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](OUT_DIR / args.workload)
    if args.trace:
        out, correct, metrics, extra = per_layer(args, workload, workloads, tracing)
    else:
        out, correct, metrics, extra = end_to_end(args, workload, workloads)

    info = machine_info()
    print(f"# rdibeams benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# load: closed loop, 1 client, 1 thread, BLAS/OpenMP threads 1; "
          f"work unit: {workload.work_unit}")
    print(f"{'metric':36s} {'value':>16s} {'unit':6s} samples")
    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"{name:36s} {value:16.6g} {unit:6s} {samples}")
    print(f"# operations: {len(out.latencies)}, attempted {out.attempted}, "
          f"failed {out.failed}, gates {'held' if correct else 'BROKEN'}")
    for line in out.failures:
        print(f"# failed: {line}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
