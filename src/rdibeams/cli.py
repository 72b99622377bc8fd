"""Command-line surface: list the catalog, evaluate fields on grids, run the
verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
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


# the largest work a command accepts, refused as a usage error before
# anything is allocated: peak RSS, measured at 10^3 and 10^4 points (Linux
# x86-64, Python 3.11, numpy 2.4), grows by about 11 KB per verify point
# over 40 MB, so that bound holds a run to about 1.2 GB, and by about
# 0.8 KB per eval grid point over 35 MB in either format (the evaluation's
# arrays; a map's text is held one block of rows at a time), so that bound
# holds a map to about 0.45 GB
MAX_POINTS = 100_000
MAX_GRID_POINTS = 500_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a usage error too
        raise UsageError(message)


# command -> {config key: (JSON type, default, help)}: every option of the
# command, its flag the key with "_" written "-"
_OPTIONS = {
    "eval": {
        "family": (str, None, "solution family (see `rdibeams catalog`)"),
        "n": (int, 0, "principal index"),
        "l": (int, 0, "orbital index"),
        "M": (int, None, "winding; a 1/r-field family's own (an --l "
              "beside it is 0 or M), else 2l, or -2l when split"),
        "B": (float, 1.0, "field-strength constant"),
        "mass": (float, 1.0, "electron mass"),
        "pz": (float, 0.0, "longitudinal momentum"),
        "pperp": (float, 1.0, "transverse momentum of the Bessel beams"),
        "waveform": (str, None, "plane-wave drive, kind:amplitude"),
        "omega": (float, 1.0, "plane-wave frequency"),
        "grid_t": (str, "0:0:1", "lo:hi:count"),
        "grid_x": (str, "0.5:3:6", "lo:hi:count"),
        "grid_y": (str, "0.5:3:6", "lo:hi:count"),
        "grid_z": (str, "0:0:1", "lo:hi:count"),
        "axis_exclude": (float, 1e-3, "skip points nearer the field's axis"),
        "format": (str, "csv", "csv or jsonl"),
        "out": (str, "-", "output path, '-' for stdout"),
    },
    "verify": {
        "family": (str, "all", "family name or 'all'"),
        "check": (list, None, "restrict to named checks (repeatable)"),
        "points": (int, 100, "sample points per spec"),
        "seed": (int, 20240801, "sample seed"),
        "fd_step": (float, 1e-3, "finite-difference step"),
        "negative_control": (str, None, "a fault to inject, to be detected: "
                             + " | ".join(verify.FAULTS)),
        "timings": (bool, False, "add the wall-clock time"),
        "out": (str, None, "report path (default stdout)"),
    },
}
# argparse keywords per JSON type: an absent flag reads None, keeping --config
_FLAG = {int: {"type": int}, float: {"type": float}, str: {},
         list: {"action": "append"},
         bool: {"action": "store_true", "default": None}}


def _read(cfg: dict, key: str, kind: type, default):
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
    if not all(map(math.isfinite, (lo, hi, hi - lo))):
        raise UsageError(f"bad range spec {text!r}, bound or span not finite")
    return lo, hi, count


def _parse_waveform(text: str):
    try:
        kind, amp = text.split(":")
        return KINDS[kind](float(amp))
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad waveform {text!r}, want kind:amplitude "
                         f"({exc})") from exc


def _family(name) -> cat.Family:
    try:
        return cat.Family(name)
    except ValueError:
        raise UsageError("missing --family" if name is None
                         else f"unknown family {name!r}")


def _spec(cfg: dict) -> cat.SolutionSpec:
    family, waveform = _family(cfg["family"]), cfg["waveform"]
    waveform = _parse_waveform(waveform) if waveform else None  # "" is none
    try:
        return cat.SolutionSpec(
            family=family, n=cfg["n"], l=cfg["l"], M=cfg["M"],
            B=cfg["B"], m=cfg["mass"], p_z=cfg["pz"], p_perp=cfg["pperp"],
            omega=cfg["omega"], waveform=waveform)
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
# each format's row: its start, field separator and end, and its fields in
# order, each a column of _CSV_HEADER with its %-format.  csv is the text of
# f"{v:.12g}" fields with csv's "\r\n" line end (no such field needs
# quoting), jsonl that of json.dumps(row, sort_keys=True) for finite floats
_CSV_TEXT_HEADER = ",".join(_CSV_HEADER) + "\r\n"
_ROW_FORMATS = {
    "csv": ("", ",", "\r\n", [(i, "%.12g") for i in range(len(_CSV_HEADER))]),
    "jsonl": ("{", ", ", "}\n", [
        (i, f'"{_CSV_HEADER[i]}": %r')
        for i in sorted(range(len(_CSV_HEADER)), key=_CSV_HEADER.__getitem__)]),
}
# the rows a %-call formats at once: a map holds its table and one block's
# floats and text, at most about 3 MB at 1024 rows, which fit in the room
# its evaluation's freed arrays leave (a 10^4-point map peaks in the
# evaluation)
_BLOCK_ROWS = 1024


def _grid_points(cfg: dict) -> np.ndarray:
    """The grid as points[n, 4], t slowest and z fastest; a grid of more
    than MAX_GRID_POINTS points is a usage error."""
    ranges = [_parse_range(cfg[f"grid_{a}"]) for a in "txyz"]
    if (size := math.prod(count for *_, count in ranges)) > MAX_GRID_POINTS:
        raise UsageError(f"need a grid of at most {MAX_GRID_POINTS} "
                         f"points, got {size}")
    axes = [np.linspace(*r) for r in ranges]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


def _effective_config(args) -> tuple[dict, dict]:
    """Every option of the command, read once (its flag, else its --config
    value, else its default), and the meta to echo: the given options but
    `out`, `timings` and nulls, so an output is the same wherever it lands."""
    options = _OPTIONS[args.command]
    given = {}
    if args.config:
        with open(args.config) as fh:
            try:
                given = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"--config is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise UsageError("--config must hold a JSON object")
        if unknown := sorted(set(given) - set(options)):
            raise UsageError(f"unknown config key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(options)}")
    given.update((k, v) for k in options
                 if (v := getattr(args, k)) is not None)
    values = {key: _read(given, key, kind, default)
              for key, (kind, default, _) in options.items()}
    config = {k: v for k, v in sorted(given.items())
              if v is not None and k not in ("out", "timings")}
    return values, {"config": config, "version": __version__}


def _evaluate(spec: cat.SolutionSpec, points: np.ndarray) -> np.ndarray:
    """The rows of the map, one per point of points[n, 4], in the columns
    of _CSV_HEADER.  Raises DomainError if any value is not finite."""
    if not len(points):
        return np.empty((0, len(_CSV_HEADER)))
    t, x, y, z = points.T
    # numpy stays quiet: far out, a profile below the float range is zero,
    # and the density guard of `bilinears` makes that a domain error; near
    # the axis a 1/r field can overflow, and the finiteness test below
    # names it.  The fields come first, so that a point on the (shifted)
    # axis of a 1/r field is refused as such, not for its density.
    with np.errstate(all="ignore"):
        eb = cat.fields(spec, t, x, y, z)
        eA = cat.potential(spec, t, x, y, z)
        psi = cat.spinor(spec)(t, x, y, z)
        bil = bilinears(psi)
    parts = psi.view(float)  # psi[..., 4] as its 8 float parts, re first
    table = np.column_stack([points, parts, bil.current, eA, eb, bil.rho,
                             bil.beta])
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DomainError(f"{_CSV_HEADER[col]} = {table[row, col]} is not "
                          f"finite at (t, x, y, z) = "
                          f"{tuple(points[row].tolist())}")
    return table


def _map_text(head: str, table: np.ndarray, fmt: str):
    """The text of a map in `fmt`: its head, then the rows of table, a block
    of rows a string.  A column whose every row has the same bits (so not
    one that mixes 0.0 and -0.0) is formatted once, as literal text of the
    row template; the other columns of a block are formatted by one
    %-call."""
    yield head
    if not len(table):
        return
    start, sep, end, fields = _ROW_FORMATS[fmt]
    bits = table.view(np.int64)
    same = (bits == bits[0]).all(axis=0)
    first = table[0].tolist()
    template = start + sep.join(form % first[i] if same[i] else form
                                for i, form in fields) + end
    varying = [i for i, _ in fields if not same[i]]
    for k in range(0, len(table), _BLOCK_ROWS):
        block = table[k:k + _BLOCK_ROWS, varying]
        yield (template * len(block)) % tuple(block.ravel().tolist())


def cmd_eval(args) -> int:
    cfg, meta = _effective_config(args)
    spec = _spec(cfg)
    if not np.isfinite(cfg["axis_exclude"]):
        raise UsageError("need a finite --axis-exclude, got "
                         f"{cfg['axis_exclude']}")
    points = _grid_points(cfg)
    # the cylinder is around the field's own axis, r' = 0, which a dressing
    # shifts off the lab axis; a point whose r' is not finite is kept, for
    # _evaluate to name it
    with np.errstate(all="ignore"):
        xp, yp, *_ = cat._primed(spec, *points.T)
    near = np.hypot(xp, yp) < cfg["axis_exclude"]
    if cfg["format"] not in ("csv", "jsonl"):
        raise UsageError(f"unknown format {cfg['format']!r}")
    # the whole map is evaluated as one batch before --out is opened, so a
    # domain error leaves no partial map behind
    table = _evaluate(spec, points[~near])
    if cfg["format"] == "csv":
        head = "# " + json.dumps(meta, sort_keys=True) + "\n" + _CSV_TEXT_HEADER
    else:
        head = json.dumps({"meta": meta}, sort_keys=True) + "\n"
    # one call, which writes each block of rows as it is formatted
    text = _map_text(head, table, cfg["format"])
    if cfg["out"] == "-":
        sys.stdout.writelines(text)
    else:
        with open(cfg["out"], "w", newline="") as fh:
            fh.writelines(text)
    return 0


def cmd_verify(args) -> int:
    cfg, meta = _effective_config(args)
    family = cfg["family"]
    families = None if family in ("", "all") else [_family(family).value]
    if not 1 <= cfg["points"] <= MAX_POINTS:
        raise UsageError(f"need --points in [1, {MAX_POINTS}], got "
                         f"{cfg['points']}")
    if cfg["seed"] < 0:
        raise UsageError(f"need --seed >= 0, got {cfg['seed']}")
    # a NaN step fails the comparison too
    if not MIN_STEP <= cfg["fd_step"] <= MAX_STEP:
        raise UsageError(f"need --fd-step in [{MIN_STEP}, {MAX_STEP}], "
                         f"got {cfg['fd_step']}")
    report = verify.run_suite(
        families=families, checks=cfg["check"] or None, points=cfg["points"],
        seed=cfg["seed"], h=cfg["fd_step"],
        negative_control=cfg["negative_control"])
    payload = report.payload(include_timing=cfg["timings"])
    payload["meta"] = meta
    payload["histogram"] = _residual_histogram(report)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
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
    for command, text in (("eval", "evaluate fields on a grid"),
                          ("verify", "run the verification suite")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file (flags override)")
        for key, (kind, default, about) in _OPTIONS[command].items():
            p.add_argument("--" + key.replace("_", "-"), **_FLAG[kind],
                           help=about if default is None
                           else f"{about} (default {default})")
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
        if str(exc).startswith(("unknown family", "missing --family")):
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
