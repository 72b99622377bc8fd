"""Command-line surface: list the catalog, evaluate fields on grids, run the
verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from . import catalog as cat
from . import verify
from .inversion import MAX_STEP, MIN_STEP
from .specialfn import DomainError
from .spinors import NullDensity, bilinears
from .waveforms import KINDS


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a usage error too
        raise UsageError(message)


def _read(cfg: dict, key: str, kind: type, default=None):
    """cfg[key] as a `kind`, `default` where it is absent or null.  A value
    of another JSON type is a usage error: an int is no bool and no 1.7, a
    float may be an int, and one string stands for a list of it."""
    value = cfg.get(key)
    if value is None:
        return default
    if kind is list and type(value) is str:
        return [value]
    if not (type(value) is kind or kind is float and type(value) is int) \
            or kind is list and any(type(v) is not str for v in value):
        name = "list of names" if kind is list else kind.__name__
        raise UsageError(f"{key} must be {name}, got {value!r}")
    return float(value) if kind is float else value


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise UsageError(f"bad range spec {text!r}, want lo:hi:count") from exc
    if count < 0:
        raise UsageError(f"bad range spec {text!r}, negative count")
    return lo, hi, count


def _parse_waveform(text: str):
    try:
        kind, amp = text.split(":")
        return KINDS[kind](float(amp))
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad waveform {text!r}, want kind:amplitude "
                         f"({exc})") from exc


def _spec_from_config(cfg: dict) -> cat.SolutionSpec:
    family = _read(cfg, "family", str)
    try:
        fam = cat.Family(family)
    except ValueError:
        raise UsageError(f"unknown family {family!r}")
    kwargs = dict(
        family=fam,
        n=_read(cfg, "n", int, 0),
        B=_read(cfg, "B", float, 1.0),
        m=_read(cfg, "mass", float, 1.0),
        p_z=_read(cfg, "pz", float, 0.0),
        p_perp=_read(cfg, "pperp", float, 1.0),
        omega=_read(cfg, "omega", float, 1.0),
    )
    M = _read(cfg, "M", int)
    if M is not None:
        kwargs["M"] = M
        kwargs["l"] = M
    else:
        kwargs["l"] = _read(cfg, "l", int, 0)
    if waveform := _read(cfg, "waveform", str):
        kwargs["waveform"] = _parse_waveform(waveform)
    try:
        return cat.SolutionSpec(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_catalog(args) -> int:
    entries = cat.describe_families()
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    for e in entries:
        print(f"{e['family']:17s} {e['description']}")
        for k, v in sorted(e["parameters"].items()):
            print(f"    {k:9s} {v}")
    return 0


_CSV_HEADER = (
    ["t", "x", "y", "z"]
    + [f"{p}_psi{i}" for i in range(1, 5) for p in ("re", "im")]
    + [f"J{mu}" for mu in range(4)]
    + [f"eA{mu}" for mu in range(4)]
    + [f"eE{ax}" for ax in "xyz"]
    + [f"eB{ax}" for ax in "xyz"]
    + ["rho", "beta"]
)
# one %-format per output row: the csv text of f"{v:.12g}" fields with csv's
# "\r\n" line end (no such field needs quoting), and the jsonl text of
# json.dumps(row, sort_keys=True) for finite floats, whose columns are read
# in _JSONL_ORDER
_CSV_TEXT_HEADER = ",".join(_CSV_HEADER) + "\r\n"
_CSV_ROW = ",".join(["%.12g"] * len(_CSV_HEADER)) + "\r\n"
_JSONL_ORDER = sorted(range(len(_CSV_HEADER)), key=_CSV_HEADER.__getitem__)
_JSONL_ROW = "{" + ", ".join(f'"{_CSV_HEADER[i]}": %r' for i in _JSONL_ORDER) \
    + "}\n"


def _grid_points(cfg: dict) -> np.ndarray:
    """The grid as points[n, 4], t slowest and z fastest."""
    axes = []
    for name, default in (("grid_t", "0:0:1"), ("grid_x", "0.5:3:6"),
                          ("grid_y", "0.5:3:6"), ("grid_z", "0:0:1")):
        lo, hi, count = _parse_range(_read(cfg, name, str, default))
        axes.append(np.linspace(lo, hi, count))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


def _effective_config(args, keys) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"--config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("--config must hold a JSON object")
        if unknown := sorted(set(loaded) - set(keys)):
            raise UsageError(f"unknown config key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(keys)}")
        cfg.update(loaded)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _evaluate(spec: cat.SolutionSpec, points: np.ndarray) -> np.ndarray:
    """The rows of the map, one per point of points[n, 4], in the columns
    of _CSV_HEADER.  Raises DomainError if any value is not finite."""
    if not len(points):
        return np.empty((0, len(_CSV_HEADER)))
    t, x, y, z = points.T
    # numpy stays quiet: far out, a profile below the float range is zero,
    # and the density guard of `bilinears` makes that a domain error; near
    # the axis a 1/r field can overflow, and the finiteness test below
    # names it
    with np.errstate(all="ignore"):
        psi = cat.spinor(spec)(t, x, y, z)
        bil = bilinears(psi)
        smp = cat.fields(spec, t, x, y, z)
        eA = cat.potential(spec, t, x, y, z)
    parts = np.stack([psi.real, psi.imag], axis=-1).reshape(-1, 8)
    table = np.column_stack([points, parts, bil.current, eA, smp.electric,
                             smp.magnetic, bil.rho, bil.beta])
    bad = ~np.isfinite(table)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DomainError(f"{_CSV_HEADER[col]} = {table[row, col]} is not "
                          f"finite at (t, x, y, z) = "
                          f"{tuple(points[row].tolist())}")
    return table


def cmd_eval(args) -> int:
    keys = ("family", "n", "l", "M", "B", "mass", "pz", "pperp", "waveform",
            "omega", "grid_t", "grid_x", "grid_y", "grid_z",
            "axis_exclude", "format", "out")
    cfg = _effective_config(args, keys)
    spec = _spec_from_config(cfg)
    exclude = _read(cfg, "axis_exclude", float, 1e-3)
    fmt = _read(cfg, "format", str, "csv")
    out_path = _read(cfg, "out", str, "-")
    points = _grid_points(cfg)
    radii = np.hypot(points[:, 1], points[:, 2])
    if spec.family in cat.SINGULAR_ON_AXIS and exclude <= 0.0 \
            and np.any(radii == 0.0):
        print("grid touches the singular axis and exclusion is disabled",
              file=sys.stderr)
        return 3
    meta = {"config": {k: cfg[k] for k in sorted(cfg)}, "version": __version__}

    if fmt not in ("csv", "jsonl"):
        raise UsageError(f"unknown format {fmt!r}")

    # the whole map is evaluated as one batch before --out is opened, so a
    # domain error leaves no partial map behind
    table = _evaluate(spec, points[radii >= exclude])
    if fmt == "csv":
        head = "# " + json.dumps(meta, sort_keys=True) + "\n" + _CSV_TEXT_HEADER
        row_text = _CSV_ROW
    else:
        head = json.dumps({"meta": meta}, sort_keys=True) + "\n"
        row_text, table = _JSONL_ROW, table[:, _JSONL_ORDER]
    body = "".join([row_text % tuple(row) for row in table.tolist()])
    if out_path == "-":
        sys.stdout.write(head + body)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(head + body)
    return 0


def cmd_verify(args) -> int:
    keys = ("family", "check", "points", "seed", "fd_step", "out",
            "negative_control", "timings")
    cfg = _effective_config(args, keys)
    families = None
    fam_arg = _read(cfg, "family", str, "all")
    if fam_arg and fam_arg != "all":
        try:
            families = [cat.Family(fam_arg).value]
        except ValueError:
            raise UsageError(f"unknown family {fam_arg!r}")
    points = _read(cfg, "points", int, 100)
    if points < 1:
        raise UsageError(f"need --points >= 1, got {points}")
    seed = _read(cfg, "seed", int, 20240801)
    if seed < 0:
        raise UsageError(f"need --seed >= 0, got {seed}")
    # a NaN step fails the comparison too
    h = _read(cfg, "fd_step", float, 1e-3)
    if not MIN_STEP <= h <= MAX_STEP:
        raise UsageError(f"need --fd-step in [{MIN_STEP}, {MAX_STEP}], "
                         f"got {h}")
    report = verify.run_suite(
        families=families,
        checks=_read(cfg, "check", list) or None,
        points=points,
        seed=seed,
        h=h,
        negative_control=_read(cfg, "negative_control", str),
    )
    if not report.records:
        raise UsageError("the selected checks do not apply to the selected "
                         "families; nothing was checked")
    # the echoed config carries only run-defining parameters, so reports
    # with the same seed are byte-identical regardless of where they land
    meta = {"config": {k: cfg[k] for k in sorted(cfg)
                       if cfg[k] is not None and k not in ("out", "timings")},
            "version": __version__}
    timings = _read(cfg, "timings", bool, False)
    payload = json.loads(report.to_json(include_timing=timings))
    payload["meta"] = meta
    payload["histogram"] = _residual_histogram(report)
    text = json.dumps(payload, indent=2, sort_keys=True)
    out_path = _read(cfg, "out", str)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    failing = [r for r in report.records if not r.passed]
    for r in failing:
        summary = r.extra.get("reason") \
            or f"max={r.max_residual:.3e} tol={r.tolerance:.1e}"
        print(f"FAIL {r.name} [{r.family}] {summary}", file=sys.stderr)
    return 0 if report.passed else 1


def _residual_histogram(report) -> dict:
    edges = [0.0] + [10.0 ** k for k in range(-16, 1)]
    counts = [0] * (len(edges) - 1)
    for r in report.records:
        for i in range(len(edges) - 1):
            if edges[i] <= r.max_residual < edges[i + 1]:
                counts[i] += 1
                break
    return {"edges": edges, "counts": counts}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rdibeams",
        description="Vortex-beam Dirac solutions: catalog, evaluation and "
                    "machine verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list the solution families")
    p_cat.add_argument("--json", action="store_true")

    def add_spec_args(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--family")
        p.add_argument("--n", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--M", type=int)
        p.add_argument("--B", type=float)
        p.add_argument("--mass", type=float)
        p.add_argument("--pz", type=float)
        p.add_argument("--pperp", type=float)
        p.add_argument("--waveform", help="kind:amplitude")
        p.add_argument("--omega", type=float)

    p_eval = sub.add_parser("eval", help="evaluate fields on a grid")
    add_spec_args(p_eval)
    p_eval.add_argument("--grid-t", dest="grid_t", help="lo:hi:count")
    p_eval.add_argument("--grid-x", dest="grid_x", help="lo:hi:count")
    p_eval.add_argument("--grid-y", dest="grid_y", help="lo:hi:count")
    p_eval.add_argument("--grid-z", dest="grid_z", help="lo:hi:count")
    p_eval.add_argument("--axis-exclude", dest="axis_exclude", type=float)
    p_eval.add_argument("--format", choices=("csv", "jsonl"))
    p_eval.add_argument("--out", help="output path ('-' for stdout)")

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--config", help="JSON config file (flags override)")
    p_ver.add_argument("--family", help="family name or 'all'")
    p_ver.add_argument("--check", action="append",
                       help="restrict to named checks (repeatable)")
    p_ver.add_argument("--points", type=int)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--fd-step", dest="fd_step", type=float)
    p_ver.add_argument("--negative-control", dest="negative_control",
                       choices=verify.NEGATIVE_CONTROLS)
    p_ver.add_argument("--timings", action="store_true", default=None)
    p_ver.add_argument("--out", help="report path (default stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process.  parse_args returns
    a fresh Namespace each time, so no state carries from call to call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so that a cmd_* rebound on the module (as the
        # benchmark's span tracer does) is called
        handler = {"catalog": cmd_catalog, "eval": cmd_eval,
                   "verify": cmd_verify}[args.command]
        return handler(args)
    except (UsageError, verify.SelectionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        if str(exc).startswith("unknown family"):
            cmd_catalog(argparse.Namespace(json=False))
        return 2
    except (cat.OnAxisError, NullDensity, DomainError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing --config file, an unwritable --out
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
