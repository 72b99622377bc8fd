"""The benchmark's three workloads: inputs made from the seed, the timed
operations, and the correctness gates on their outputs.

Every workload is closed-loop with one client on one thread: the next
operation starts when the previous one has returned.  An operation fails if
it raises, returns a nonzero exit code or fails its correctness gate; a
failure is counted and listed, and never stops the run.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rdibeams import catalog as cat
from rdibeams import cli, verify

from speed import SpeedSampler
from tracing import counting_rk4_steps


@dataclass
class Outcome:
    """What one run of a workload timed, counted and checked."""

    latencies: list = field(default_factory=list)      # wall seconds per op
    ref_latencies: list = field(default_factory=list)  # at reference speed
    work: int = 0                 # work units completed (see Workload.work_unit)
    attempted: int = 0
    failed: int = 0
    gates_ok: bool = True         # every correctness gate held
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1, gate: bool = True) -> None:
        """Record `count` failed operations; `gate` marks a broken output."""
        self.failed += count
        self.failures.append(message)
        if gate:
            self.gates_ok = False

    def add_count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)


@dataclass
class Op:
    """One operation: `call()` is timed; `check(result, out)` is not, and
    gates the result, counts what was attempted and returns the work done."""

    label: str
    call: object
    check: object
    size: int = 1  # operations attempted, counted as failed if `call` raises


def _subseed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _unsampled(fn):
    t0 = time.perf_counter()
    return fn(), time.perf_counter() - t0, None


def _run_ops(ops, seconds: float | None, min_ops: int, out: Outcome) -> Outcome:
    """Run operations from the iterator `ops` back to back.

    With `seconds`, operations start until that much time has passed (at
    least `min_ops` of them) while a SpeedSampler runs; without, every
    operation in `ops` runs, unsampled.
    """
    with contextlib.ExitStack() as stack:
        rk4_steps = stack.enter_context(counting_rk4_steps())
        if seconds is not None:
            t_end = time.perf_counter() + seconds
            timed = stack.enter_context(SpeedSampler()).timed
        else:
            t_end, timed = None, _unsampled
        for k, op in enumerate(ops):
            if t_end is not None and k >= min_ops and time.perf_counter() >= t_end:
                break
            try:
                result, wall, at_ref = timed(op.call)
            except Exception:
                out.attempted += op.size
                out.fail(f"{op.label}: raised "
                         + traceback.format_exc(limit=1).strip(), count=op.size)
                continue
            out.latencies.append(wall)
            if at_ref is not None:
                out.ref_latencies.append(at_ref)
            out.work += op.check(result, out)
    out.add_count("rk4_steps", rk4_steps[0])
    return out


class Workload:
    name = ""
    work_unit = ""
    min_ops = 1
    trace_ops = 1  # operations in the fixed-size traced run

    def __init__(self, work_dir: Path):
        self.work_dir = Path(work_dir)  # the only place a workload writes

    def specs(self) -> list:
        """The solution specs the workload evaluates."""
        raise NotImplementedError

    def operations(self, seed: int):
        """Endless iterator of the workload's operations (Op)."""
        raise NotImplementedError

    def run(self, seed: int, seconds: float | None = None,
            n_ops: int | None = None) -> Outcome:
        """Timed run for `seconds`, or exactly `n_ops` operations."""
        ops = self.operations(seed)
        if n_ops is not None:
            ops = itertools.islice(ops, n_ops)
        return _run_ops(ops, seconds, self.min_ops, Outcome())


def first_evaluations(specs) -> None:
    """One spinor evaluation per spec; fills the normalization cache."""
    for spec in specs:
        cat.spinor(spec)(1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# verify-standard
# ---------------------------------------------------------------------------


class VerifyStandard(Workload):
    """Full `verify.run_suite` passes: the suite `rdibeams verify --points 100`
    runs, with one seed per pass derived from the workload seed."""

    name = "verify-standard"
    work_unit = "records"
    points = 100
    records_per_pass = 181
    min_ops = 2  # pass 1 repeats pass 0's seed for the determinism gate

    def specs(self):
        return [s for group in verify.default_specs().values() for s in group]

    def operations(self, seed):
        first_json = []  # reports of passes 0 and 1
        for k in itertools.count():
            pass_seed = _subseed(seed, max(k - 1, 0))

            def check(report, out, k=k, pass_seed=pass_seed):
                records = report.records
                out.attempted += len(records)
                out.add_count("verify.records", len(records))
                out.add_count("verify.kinematics_excluded", sum(
                    r.extra.get("excluded", 0) for r in records
                    if r.name == "kinematics"))
                out.add_count("inversion.singular_skips", sum(
                    r.extra.get("skipped", 0) for r in records
                    if r.name == "inversion"))
                for r in records:
                    if not r.passed:
                        # the suite itself fails a check: a program defect,
                        # counted as a failed operation; the report is right
                        out.fail(f"pass {k} seed {pass_seed}: FAIL {r.name} "
                                 f"[{r.family}] max={r.max_residual:.3e} "
                                 f"tol={r.tolerance:.1e}", gate=False)
                if len(records) != self.records_per_pass:
                    out.fail(f"pass {k} seed {pass_seed}: {len(records)} records, "
                             f"want {self.records_per_pass}")
                if k < 2:
                    first_json.append(report.to_json())
                if k == 1 and first_json[1] != first_json[0]:
                    out.fail(f"pass 1 seed {pass_seed}: report differs from "
                             "pass 0 with the same seed")
                return len(records)

            yield Op(f"pass {k} seed {pass_seed}",
                     lambda pass_seed=pass_seed: verify.run_suite(
                         points=self.points, seed=pass_seed),
                     check, self.records_per_pass)


# ---------------------------------------------------------------------------
# eval-maps
# ---------------------------------------------------------------------------

_CSV_COLUMNS = 28  # t x y z, 8 spinor parts, J^mu, eA^mu, eE, eB, rho, beta
_WAVEFORMS = (("circular", 0.3), ("linear", 0.25), ("pulse", 0.2))


@dataclass
class MapRequest:
    argv: list
    fmt: str
    grid: list          # [(t, x, y, z)] in the order the CLI writes them


class EvalMaps(Workload):
    """`rdibeams eval` map requests made in-process through `cli.main`."""

    name = "eval-maps"
    work_unit = "points"
    min_ops = 100
    trace_ops = 21
    box = (verify.BOX_LOW, verify.BOX_HIGH)
    axis_exclude = 1e-3  # the CLI default

    def specs(self):
        return [s for group in verify.default_specs().values() for s in group]

    def deck(self, seed: int, index: int) -> list:
        """One request per default spec (all seven families), in seeded
        order; dressed specs rotate through the three waveforms and the
        formats alternate.  Every map has the same 8x8 points (at one t and
        z), so that decks differ in where the points lie, not how many."""
        rng = np.random.default_rng(_subseed(seed, index))
        requests = []
        n_dressed = 0
        for spec in self.specs():
            argv = ["eval", "--family", spec.family.value, "--n", str(spec.n)]
            if spec.family in cat.SINGULAR_ON_AXIS:
                argv += ["--M", str(spec.M)]
            else:
                argv += ["--l", str(spec.l)]
            if spec.family in (cat.Family.FREE_BESSEL, cat.Family.VOLKOV_BESSEL):
                argv += ["--pperp", repr(spec.p_perp)]
            if spec.is_dressed:
                kind, amp = _WAVEFORMS[(n_dressed + index) % 3]
                n_dressed += 1
                argv += ["--waveform", f"{kind}:{amp}", "--omega", repr(spec.omega)]
            else:
                argv += ["--pz", repr(spec.p_z)]
            axes = []
            for axis, count in (("t", 1), ("x", 8), ("y", 8), ("z", 1)):
                lo, hi = sorted(round(float(v), 4)
                                for v in rng.uniform(*self.box, size=2))
                argv += [f"--grid-{axis}", f"{lo!r}:{hi!r}:{count}"]
                axes.append(np.linspace(lo, hi, count))
            fmt = ("csv", "jsonl")[len(requests) % 2]
            argv += ["--format", fmt, "--out", str(self.work_dir / f"map.{fmt}")]
            grid = [(t, x, y, z) for t in axes[0] for x in axes[1]
                    for y in axes[2] for z in axes[3]
                    if math.hypot(x, y) >= self.axis_exclude]
            requests.append(MapRequest(argv, fmt, grid))
        order = rng.permutation(len(requests))
        return [requests[i] for i in order]

    def operations(self, seed):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for index in itertools.count():
            for req in self.deck(seed, index):
                label = "map [" + " ".join(req.argv[1:-2]) + "]"
                yield Op(label, lambda req=req: cli.main(req.argv),
                         lambda rc, out, req=req, label=label:
                             self._check_map(req, label, rc, out))

    def _check_map(self, req: MapRequest, label: str, rc: int,
                   out: Outcome) -> int:
        """Read the map back: it must parse, hold one row per grid point
        outside the axis cylinder, in grid order, with every value finite.
        Returns the rows written."""
        out.attempted += 1
        if rc != 0:
            out.fail(f"{label}: exit code {rc}")
            return 0
        path = Path(req.argv[-1])
        out.add_count("cli.bytes_written", path.stat().st_size)
        try:
            rows = self._read_rows(path, req.fmt)
        except (ValueError, KeyError, IndexError) as exc:
            out.fail(f"{label}: unreadable output: {exc}")
            return 0
        out.add_count("cli.rows", len(rows))
        if len(rows) != len(req.grid):
            out.fail(f"{label}: {len(rows)} rows, want {len(req.grid)}")
            return len(rows)
        values = np.array(rows, dtype=float)
        if not np.all(np.isfinite(values)):
            out.fail(f"{label}: non-finite values")
        elif not np.allclose(values[:, :4], np.array(req.grid), rtol=1e-10,
                             atol=1e-12):
            out.fail(f"{label}: coordinates differ from the grid")
        return len(rows)

    @staticmethod
    def _read_rows(path: Path, fmt: str) -> list:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        if fmt == "csv":
            if not lines[0].startswith("# "):
                raise ValueError("missing metadata line")
            json.loads(lines[0][2:])
            header, *body = list(csv.reader(lines[1:]))
            if len(header) != _CSV_COLUMNS:
                raise ValueError(f"{len(header)} columns")
            rows = [[float(v) for v in row] for row in body]
            if any(len(row) != _CSV_COLUMNS for row in rows):
                raise ValueError("short row")
            return rows
        if "meta" not in json.loads(lines[0]):
            raise ValueError("missing metadata line")
        header = None
        rows = []
        for line in lines[1:]:
            obj = json.loads(line)
            if header is None:
                header = list(obj)
                if len(header) != _CSV_COLUMNS:
                    raise ValueError(f"{len(header)} columns")
                header = ["t", "x", "y", "z"] + [
                    h for h in header if h not in ("t", "x", "y", "z")]
            rows.append([float(obj[h]) for h in header])
        return rows


# ---------------------------------------------------------------------------
# streamlines
# ---------------------------------------------------------------------------


class Streamlines(Workload):
    """Orbit closure and the flux-weighted proper-time average, spec by spec,
    over the stationary magnetic default specs that carry azimuthal flow."""

    name = "streamlines"
    work_unit = "rk4_steps"
    min_ops = 3
    trace_ops = 2
    # start radii clear of every radial node of these states; there the
    # RK4 step-halving error stays below 2.2e-7, under a fifth of its bound
    r0_range = (0.6, 0.95)
    orbit_steps = 500
    pta_radii = 24
    pta_steps = 32
    # thresholds of the streamline tests in tests/test_verify.py
    max_drift = 1e-6
    swept_rel = 1e-3
    pta_rel = 1e-4

    def specs(self):
        defaults = verify.default_specs()
        specs = [s for fam in cat.MAGNETIC_FAMILIES for s in defaults[fam]]
        # the ground state has no azimuthal current: no orbit to close
        return [s for s in specs
                if abs(cat.bilinear_fields(s, 0.0, 1.0, 0.0, 0.0)["J_phi"]) > 1e-14]

    def run(self, seed, seconds=None, n_ops=None):
        out = super().run(seed, seconds, n_ops)
        out.work = out.counts["rk4_steps"]
        return out

    def operations(self, seed):
        specs = self.specs()
        rng = np.random.default_rng(_subseed(seed, 0))
        while True:
            for spec in specs:
                r0 = float(rng.uniform(*self.r0_range))
                yield Op(f"streamlines [{verify.spec_label(spec)} r0={r0:.4f}]",
                         lambda spec=spec, r0=r0: self._integrate(spec, r0),
                         lambda res, out, spec=spec, r0=r0:
                             self._check(spec, r0, res, out),
                         size=2)

    def _integrate(self, spec, r0: float) -> tuple:
        """(orbit closure, proper-time average), each a result or the
        exception it raised."""
        results = []
        for fn in (lambda: verify.orbit_closure(spec, r0, steps=self.orbit_steps),
                   lambda: verify.proper_time_average(
                       spec, n_radii=self.pta_radii, steps=self.pta_steps)):
            try:
                results.append(fn())
            except Exception as exc:  # StepUnstable and anything else fail it
                results.append(exc)
        return tuple(results)

    def _check(self, spec, r0: float, results: tuple, out: Outcome) -> int:
        label = f"{verify.spec_label(spec)} r0={r0:.4f}"
        orbit, avg = results
        out.attempted += 2
        if isinstance(orbit, Exception):
            out.fail(f"orbit [{label}]: {type(orbit).__name__}: {orbit}")
        else:
            swept_err = abs(orbit["swept_angle"] - 2.0 * math.pi) / (2.0 * math.pi)
            if not (orbit["radial_drift"] <= self.max_drift
                    and swept_err <= self.swept_rel):
                out.fail(f"orbit [{label}]: drift {orbit['radial_drift']:.2e}/rev, "
                         f"swept angle off by {swept_err:.2e}")
        if isinstance(avg, Exception):
            out.fail(f"proper time [{label}]: {type(avg).__name__}: {avg}")
        else:
            eps = cat.eigenvalue(spec)
            if not abs(avg - eps) / eps <= self.pta_rel:
                out.fail(f"proper time [{label}]: {avg!r} vs eps {eps!r}")
        return 0  # the work is the RK4 step count, taken in run()


WORKLOADS = {w.name: w for w in (VerifyStandard, EvalMaps, Streamlines)}
