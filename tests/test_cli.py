"""Command-line surface: catalog listing, grid evaluation, verification
runs, exit codes, determinism."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import rdibeams
from rdibeams import catalog as cat
from rdibeams import cli, verify, waveforms

# the child process imports the same rdibeams as this one, installed or not
PACKAGE_ROOT = str(Path(rdibeams.__file__).resolve().parents[1])
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args, check=True):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "rdibeams.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_catalog_lists_seven_families(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("free-bessel", "uniform-b", "uniform-b-split", "radial-b",
                 "volkov-bessel", "redmond", "radial-b-laser"):
        assert name in out


def test_catalog_json_schema(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 7
    assert all("parameters" in e and "description" in e for e in entries)


def test_catalog_json_matches_golden_bytes(capsys):
    # tests/golden/catalog.json is the listing as the family if-chain wrote
    # it, before one table replaced the chain, with its keys renamed to the
    # eval option keys and pz dropped from the dressed families
    assert cli.main(["catalog", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / "catalog.json").read_bytes()


def test_catalog_parameters_are_eval_option_keys():
    # the listing names the keys `eval` takes, and p_z only where it may be
    # nonzero: the dressed families are built at p_z = 0
    for e in cat.describe_families():
        assert set(e["parameters"]) <= set(cli._OPTIONS["eval"]), e
        dressed = cat.Family(e["family"]) in cat.DRESSED_BASE
        assert ("pz" in e["parameters"]) != dressed, e


def test_unknown_family_exits_2_and_prints_catalog(capsys):
    # a missing family as well as an unknown one
    for argv in (["eval", "--family", "does-not-exist"], ["eval"]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert "uniform-b" in out.out  # catalog echoed for orientation


def test_eval_grid_row_count(tmp_path):
    out = tmp_path / "map.csv"
    code = cli.main([
        "eval", "--family", "uniform-b", "--n", "1",
        "--grid-x", "0.5:2.5:21", "--grid-y", "0.5:2.5:21",
        "--grid-z", "0.5:2.5:21", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")  # embedded config
    header = lines[1].split(",")
    assert header[:4] == ["t", "x", "y", "z"]
    assert len(header) == 28
    assert len(lines) == 2 + 21 * 21 * 21  # 9261 grid rows


def test_eval_stationary_jz_column_zero(tmp_path):
    out = tmp_path / "map.csv"
    cli.main(["eval", "--family", "uniform-b", "--n", "1",
              "--grid-x", "0.5:2:5", "--grid-y", "0.5:2:5",
              "--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    jz = header.index("J3")
    for row in lines[2:]:
        assert float(row.split(",")[jz]) == 0.0


def test_eval_zero_amplitude_matches_stationary_bit_for_bit(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["eval", "--family", "redmond", "--n", "1",
              "--waveform", "circular:0", "--omega", "1.1",
              "--grid-x", "0.5:2:4", "--grid-y", "0.5:2:4",
              "--out", str(a)])
    cli.main(["eval", "--family", "uniform-b", "--n", "1",
              "--grid-x", "0.5:2:4", "--grid-y", "0.5:2:4",
              "--out", str(b)])
    rows_a = a.read_text().splitlines()[2:]
    rows_b = b.read_text().splitlines()[2:]
    assert rows_a == rows_b


def test_eval_jsonl_format(tmp_path):
    out = tmp_path / "map.jsonl"
    cli.main(["eval", "--family", "free-bessel", "--l", "1",
              "--pperp", "0.9", "--grid-x", "1:2:3", "--grid-y", "1:2:3",
              "--format", "jsonl", "--out", str(out)])
    lines = out.read_text().splitlines()
    meta = json.loads(lines[0])
    assert "meta" in meta
    row = json.loads(lines[1])
    assert set(row) == set(cli._CSV_HEADER)


def test_eval_io_failure_exits_4():
    code = cli.main(["eval", "--family", "uniform-b", "--n", "1",
                     "--grid-x", "1:1:1", "--grid-y", "1:1:1",
                     "--out", "/nonexistent-dir/x.csv"])
    assert code == 4


@pytest.mark.parametrize("args, code", [
    # the density underflows far out in the uniform field
    (["eval", "--family", "uniform-b", "--grid-x", "30:40:3",
      "--grid-y", "0.5:0.5:1"], 3),
    # an l > 0 Bessel beam vanishes on the axis
    (["eval", "--family", "free-bessel", "--l", "1", "--grid-x", "0:1:2",
      "--grid-y", "0:0:1", "--axis-exclude", "0"], 3),
    # outside the Bessel recurrence's validity window
    (["eval", "--family", "free-bessel", "--pperp", "5000"], 3),
    # a grid on the axis of a 1/r field with exclusion disabled
    (["eval", "--family", "radial-b", "--n", "1", "--grid-x=-1:1:3",
      "--grid-y=-1:1:3", "--axis-exclude", "0"], 3),
    (["eval", "--family", "uniform-b", "--grid-x", "0.5:3:-2"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--B", "-1"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--B", "nan"], 2),
    (["eval", "--family", "redmond", "--waveform", "circular:0.3",
      "--omega", "nan"], 2),
    (["eval", "--family", "free-bessel", "--pperp", "inf"], 2),
    (["eval", "--family", "uniform-b", "--pz", "nan"], 2),
    (["eval", "--config", "/nonexistent-dir/cfg.json"], 4),
    (["verify", "--config", "/nonexistent-dir/cfg.json"], 4),
    (["eval", "--config", "{tmp}/not-json.json"], 2),
    (["verify", "--config", "{tmp}/not-object.json"], 2),
    # far out, the Laguerre function is below the float range: psi is
    # exactly zero
    (["eval", "--family", "uniform-b", "--l", "100", "--grid-x",
      "2500:2500:1", "--grid-y", "0:0:1"], 3),
    # a phase t - z that overflows: the shifted point is not finite, and
    # the axis exclusion keeps it for the map to refuse, not drop it
    (["eval", "--family", "radial-b-laser", "--n", "1", "--M", "1",
      "--waveform", "linear:0.25", "--grid-t=1e308:1e308:1",
      "--grid-z=-1e308:-1e308:1", "--grid-x", "1:1:1", "--grid-y",
      "1:1:1"], 3),
    # a --config value of the wrong JSON type; each eval config names a
    # family, so that only the mistyped value can be refused
    (["verify", "--config", {"seed": "abc"}], 2),
    (["verify", "--config", {"fd_step": [1]}], 2),
    (["verify", "--config", {"points": "many"}], 2),
    (["verify", "--config", {"check": ["dirac", 5]}], 2),
    (["eval", "--config", {"family": "uniform-b", "n": "one"}], 2),
    (["eval", "--config", {"family": "uniform-b", "n": 1.7}], 2),
    (["eval", "--config", {"family": "uniform-b", "n": True}], 2),
    (["eval", "--config", {"family": "uniform-b", "axis_exclude": "x"}], 2),
    (["eval", "--config", {"family": "redmond", "waveform": 5}], 2),
    (["eval", "--config", {"family": "uniform-b", "grid_x": 5}], 2),
    # a config key that nothing reads: natural units are the only units,
    # and p_perp and seeds are no keys (pperp and seed are)
    (["eval", "--config", {"family": "uniform-b", "units": "SI"}], 2),
    (["eval", "--config", {"family": "free-bessel", "p_perp": 2.0}], 2),
    (["verify", "--config", {"seeds": 5}], 2),
    (["eval", "--family", "uniform-b", "--units", "si"], 2),
    # a level or a waveform amplitude^2 past the float range
    (["eval", "--family", "uniform-b", "--n", "1", "--pz", "1e300"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--pz", "1e200"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--B", "1e200"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--mass", "1e200"], 2),
    (["eval", "--family", "free-bessel", "--pperp", "1e200"], 2),
    (["eval", "--family", "redmond", "--n", "1", "--waveform",
      "circular:1e300"], 2),
    # 2 eps omega^3, the gauge phase's divisor, past or below the float
    # range, and a level whose square underflows
    (["eval", "--family", "redmond", "--n", "1", "--waveform",
      "circular:0.3", "--omega", "1e103"], 2),
    (["eval", "--family", "redmond", "--n", "1", "--waveform",
      "circular:0.3", "--omega", "1e-120"], 2),
    (["eval", "--family", "uniform-b", "--mass", "1e-200"], 2),
    # a p_perp whose square is lost beside m^2 + p_z^2 in the level
    (["eval", "--family", "free-bessel", "--pz=-1.5", "--pperp", "1e-300"],
     2),
    # no family from the flag or the config: the message names the flag
    (["eval"], 2),
    # a grid bound or an axis exclusion that is not finite
    (["eval", "--family", "uniform-b", "--n", "1", "--grid-x", "nan:1:3",
      "--grid-y", "0.5:1:2"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--grid-x", "0.5:inf:3"],
     2),
    (["eval", "--family", "uniform-b", "--n", "1", "--grid-t", "nan:0:1"], 2),
    (["eval", "--family", "uniform-b", "--n", "1",
      "--grid-x=-1e308:1e308:3"], 2),
    (["eval", "--family", "uniform-b", "--n", "1", "--axis-exclude", "nan"],
     2),
    (["eval", "--family", "uniform-b", "--n", "1", "--axis-exclude=-inf"], 2),
    # an --l beside --M that is neither 0 nor M
    (["eval", "--family", "radial-b", "--n", "1", "--l", "2", "--M", "1"], 2),
    # a work size past the envelope, refused before anything is allocated
    (["verify", "--points", "1000000000000"], 2),
    (["eval", "--family", "uniform-b", "--grid-x", "0.5:1:1000000000000"], 2),
], ids=["far-density", "bessel-axis", "pperp-window", "radial-axis",
        "negative-count",
        "B-negative", "B-nan", "omega-nan", "pperp-inf", "pz-nan",
        "eval-config", "verify-config", "config-not-json",
        "config-not-object", "far-tail-nan", "phase-overflow",
        "config-seed-abc",
        "config-fd-step-list", "config-points-many", "config-check-int",
        "config-n-one", "config-n-fraction", "config-n-bool",
        "config-axis-exclude-x", "config-waveform-int", "config-grid-x-int",
        "config-units-unknown", "config-p-perp-unknown",
        "config-seeds-unknown", "units-flag", "pz-1e300-overflow",
        "pz-1e200-overflow", "B-1e200-overflow", "mass-1e200-overflow",
        "pperp-1e200-overflow", "amplitude-1e300-overflow",
        "omega-1e103-overflow", "omega-1e-120-underflow",
        "mass-1e-200-underflow", "pperp-1e-300-lost", "family-missing",
        "grid-lo-nan", "grid-hi-inf", "grid-t-nan", "grid-span-overflow",
        "axis-exclude-nan",
        "axis-exclude-minus-inf", "radial-l-not-M", "points-1e12",
        "grid-1e12"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_errors_map_to_documented_exit_codes(args, code, tmp_path, capsys):
    (tmp_path / "not-json.json").write_text("{")
    (tmp_path / "not-object.json").write_text("[1, 2]")
    (tmp_path / "cfg.json").write_text(json.dumps(args[-1]))
    args = [str(tmp_path / "cfg.json") if isinstance(a, dict)
            else a.format(tmp=tmp_path) for a in args]
    assert cli.main([*args, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "usage error", 3: "domain error",
                           4: "I/O failure"}[code])
    assert "Traceback" not in err and "None" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--points", str(cli.MAX_POINTS + 1)],
    ["eval", "--family", "uniform-b", "--grid-y", "0.5:0.5:1", "--grid-x",
     f"0.5:1:{cli.MAX_GRID_POINTS + 1}"],
], ids=["points", "grid"])
def test_work_past_the_envelope_is_refused_before_it_runs(argv, monkeypatch,
                                                           capsys):
    # one point past either bound is a usage error, and neither the suite
    # nor the map evaluation is entered
    def reached(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(verify, "run_suite", reached)
    monkeypatch.setattr(cli, "_evaluate", reached)
    monkeypatch.setattr(np, "linspace", reached)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: need ")


# every numeric option of eval, then a waveform amplitude and a grid edge;
# each is drawn from its typical value, the zeros, negatives and the float
# and integer extremes (the integer options take the float ones too, which
# the parser refuses)
_FUZZ_TYPICAL = {"n": "1", "l": "1", "M": "1", "B": "0.7", "mass": "1.3",
                 "pz": "0.4", "pperp": "0.8", "omega": "1.1",
                 "amplitude": "0.3", "grid-x": "0.5", "axis-exclude": "1e-3"}
_FUZZ_EXTREMES = ("0", "-0", "-1.5", "-3", "1e-300", "1e300",
                  "1" + "0" * 300, "nan", "inf", "-inf")


def _fuzz_argv(family, kind, values) -> list:
    """eval on a grid of at most 2 x 2 points, the drawn values given as
    flags; an amplitude or grid edge left out takes its typical value."""
    values = {**dict.fromkeys(_FUZZ_TYPICAL), **values}
    typical = {k: values.pop(k) or _FUZZ_TYPICAL[k]
               for k in ("amplitude", "grid-x")}
    argv = ["eval", "--family", family.value,
            f"--grid-x={typical['grid-x']}:1.5:2", "--grid-y=0.5:1.5:2"]
    if family in cat.DRESSED_BASE:
        argv.append(f"--waveform={kind}:{typical['amplitude']}")
    if family not in cat.SINGULAR_ON_AXIS:  # M is 2l there, not an option
        del values["M"]
    return argv + [f"--{k}={v}" for k, v in values.items() if v is not None]


@example(cat.Family.REDMOND, "circular", {"n": "1", "omega": "1e103"})
@example(cat.Family.REDMOND, "circular", {"n": "1", "omega": "1e-120"})
@example(cat.Family.UNIFORM_B, "circular", {"mass": "1e-200"})
@example(cat.Family.FREE_BESSEL, "circular", {"pz": "-1.5", "pperp": "1e-300"})
@given(st.sampled_from(cat.Family), st.sampled_from(["circular", "linear",
                                                      "pulse"]),
       st.fixed_dictionaries({key: st.one_of(
           st.none(), st.just(typical), st.sampled_from(_FUZZ_EXTREMES))
           for key, typical in _FUZZ_TYPICAL.items()}))
@settings(derandomize=True, max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_exits_with_a_documented_code_for_any_numeric_flag(
        family, kind, values):
    # no exception escapes, the exit code is documented and a map that
    # exits 0 holds only finite numbers
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_fuzz_argv(family, kind, values))
    assert code in (0, 2, 3, 4), err.getvalue()
    lines = out.getvalue().splitlines()
    if code == 0:
        # no row at all where the axis exclusion covers the grid
        rows = np.array([row.split(",") for row in lines[2:]], dtype=float)
        assert np.isfinite(rows).all()
    else:
        assert not lines and err.getvalue().count("\n") == 1, err.getvalue()


@example("uniform-b", ["dirac"], "scale-potential", "2", "1", "1e-3")
@example("redmond", [], "perturb-profile", "1", "0", "1e-3")
@example("radial-b", ["ode"], None, "3", "1" + "0" * 300, "1e-3")
@example("volkov-bessel", [], None, "1000000000000", "7", "1e-3")
@given(st.sampled_from([f.value for f in cat.Family] + ["no-such-family"]),
       st.lists(st.sampled_from([*verify.CHECK_NAMES, "no-such-check"]),
                max_size=2),
       st.sampled_from([None, *verify.FAULTS]),
       st.sampled_from(["-1", "0", "1", "2", "3", "1000000000000"]),
       st.one_of(st.just("20240801"), st.sampled_from(_FUZZ_EXTREMES)),
       st.one_of(st.just("1e-3"), st.sampled_from(_FUZZ_EXTREMES)))
@settings(derandomize=True, max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_exits_with_a_documented_code_for_any_argv(
        family, checks, control, points, seed, step):
    # no traceback, a documented exit code, a FAIL line with every exit 1
    # and a passing report with every exit 0
    argv = ["verify", "--family", family, "--points", points,
            f"--seed={seed}", f"--fd-step={step}",
            *(f"--check={name}" for name in checks)]
    if control:
        argv.append(f"--negative-control={control}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("FAIL "), err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["passed"] is True


# a value of another JSON type for each type an option can have
_WRONG_TYPE = {str: 5, int: 1.5, float: "1.0", list: {"a": 1}, bool: 1}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, options in cli._OPTIONS.items()
    for key in options])
def test_config_value_of_wrong_type_is_usage_error(command, key, tmp_path,
                                                   capsys, monkeypatch):
    def no_suite(**kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_suite", no_suite)
    cfg = tmp_path / "cfg.json"
    wrong = _WRONG_TYPE[cli._OPTIONS[command][key][0]]
    cfg.write_text(json.dumps({key: wrong}))
    assert cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {key} must be "), captured
    assert captured.out == ""


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_help_lists_every_option(command, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = capsys.readouterr().out
    for key in ("config", *cli._OPTIONS[command]):
        assert f"--{key.replace('_', '-')} " in text, key


def test_same_map_at_two_paths_is_byte_identical(tmp_path):
    # the echoed config leaves --out out, as the verify report does
    maps = [tmp_path / "a.csv", tmp_path / "sub" / "b.csv"]
    maps[1].parent.mkdir()
    for path in maps:
        assert cli.main(["eval", *GOLDEN_MAPS["redmond"], "--out",
                         str(path)]) == 0
    assert maps[0].read_bytes() == maps[1].read_bytes()


def test_config_check_string_is_one_check_name(tmp_path):
    # a string names one check, not the checks named by its letters
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"check": "dirac", "family": "uniform-b"}))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(cfg), "--points", "1",
                     "--out", str(out)]) == 0
    names = {r["name"] for r in json.loads(out.read_text())["records"]}
    assert names == {"dirac"}


@pytest.mark.parametrize("args, message", [
    (["--l", "100", "--grid-x", "2500:2500:1", "--grid-y", "0:0:1"],
     "psi^dagger psi is zero or not finite"),
    # past the validity envelope of the magnetic families
    (["--n", "401", "--grid-x", "1:1:1", "--grid-y", "1:1:1"],
     "uniform-b n=401 l=0: Laguerre degree 2n + l = 802 is past the "
     "validity envelope (800)"),
], ids=["far-tail-nan", "past-envelope"])
def test_eval_domain_error_is_one_stderr_line(args, message, tmp_path):
    # no numpy warning ahead of the error line, and no map left behind
    out = tmp_path / "m.csv"
    proc = run_cli(["eval", "--family", "uniform-b", *args, "--out",
                    str(out)], check=False)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("domain error: ")
    assert message in proc.stderr
    assert not out.exists()


# states the hand-written magnetic profiles could not compute (their
# normalization quadrature overflowed, or needed more nodes than numpy's
# rule holds); the split state l = 200 is read on its ring, since at x = y = 1
# its density, about 1e-376, is below the float range
@pytest.mark.parametrize("family, n, orbital, x, y", [
    ("radial-b", 2, ("--M", "0"), 1.0, 1.0),
    ("radial-b", 30, ("--M", "10"), 1.0, 1.0),
    ("uniform-b", 120, ("--l", "60"), 1.0, 1.0),
    ("uniform-b", 0, ("--l", "150"), 1.0, 1.0),
    ("uniform-b-split", 50, ("--l", "100"), 1.0, 1.0),
    ("uniform-b-split", 1, ("--l", "200"), 20.0, 0.0),
], ids=["radial-2-0", "radial-30-10", "uniform-120-60", "uniform-0-150",
        "split-50-100", "split-1-200"])
def test_eval_reproducers_match_mpmath(family, n, orbital, x, y, tmp_path):
    out = tmp_path / "m.jsonl"
    assert cli.main(["eval", "--family", family, "--n", str(n), *orbital,
                     f"--grid-x={x}:{x}:1", f"--grid-y={y}:{y}:1",
                     "--format", "jsonl", "--out", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[1])
    assert all(math.isfinite(v) for v in row.values())
    psi = np.array([complex(row[f"re_psi{i}"], row[f"im_psi{i}"])
                    for i in range(1, 5)])
    key = {"--M": "M", "--l": "l"}[orbital[0]]
    spec = cat.SolutionSpec(cat.Family(family), n=n, **{key: int(orbital[1])})
    ref = oracles.magnetic_spinor_mp(spec, 0.0, x, y, 0.0)
    assert np.max(np.abs(psi - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("x, code, err", [
    # so close to the axis that the 1/r field overflows: eA1 = NaN and
    # eA2, eBz = inf, a domain error naming the first of them
    ("1e-310", 3, "domain error: eA1 = nan is not finite at (t, x, y, z) = "
                  "(0.0, 1e-310, 0.0, 0.0)\n"),
    # every written value is finite; the current source that overflows is
    # not written, and numpy says nothing about it
    ("1e-308", 0, ""),
], ids=["non-finite", "finite"])
def test_eval_near_axis_map_is_finite_or_exits_3(x, code, err, tmp_path):
    out = tmp_path / "m.jsonl"
    proc = run_cli(["eval", "--family", "radial-b", "--M", "1",
                    f"--grid-x={x}:{x}:1", "--grid-y", "0:0:1",
                    "--axis-exclude", "1e-320", "--format", "jsonl",
                    "--out", str(out)], check=False)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("before", [None, "an earlier map\n"],
                         ids=["absent", "existing"])
def test_eval_domain_error_leaves_no_partial_map(before, tmp_path):
    # the first rows evaluate, then the density underflows at x = 30
    out = tmp_path / "partial.csv"
    if before is not None:
        out.write_text(before)
    code = cli.main(["eval", "--family", "uniform-b", "--grid-x", "20:40:5",
                     "--grid-y", "0.5:0.5:1", "--out", str(out)])
    assert code == 3
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before


# tests/golden holds these 3x3 maps: uniform-b and redmond as csv.writer and
# json.dumps wrote them, before the row templates of cli replaced both; the
# others as the row templates wrote them, at t and z off zero so that a
# dressing's shift and phase show; every first line as rewritten once the
# echoed config left out --out; free-bessel (p_z = 0.3) as rewritten once the
# free beam's constant stopped jumping by sqrt(2) at p_z = 0; radial-b-laser
# (here and at B = 1.3, m = 0.7) as rewritten once --axis-exclude measured
# r' around the shifted axis, which added the lab-axis row
_TZ = ["--grid-t=0.7:0.7:1", "--grid-z=0.4:0.4:1"]
GOLDEN_MAPS = {
    "uniform-b": ["--family", "uniform-b", "--n", "1"],
    "redmond": ["--family", "redmond", "--n", "1",
                "--waveform", "circular:0.3", "--omega", "1.1"],
    "free-bessel": ["--family", "free-bessel", "--l", "1", "--pperp", "0.8",
                    "--pz", "0.3", *_TZ],
    "uniform-b-split": ["--family", "uniform-b-split", "--n", "1", "--l", "1",
                        "--pz", "0.2", *_TZ],
    "radial-b": ["--family", "radial-b", "--n", "1", "--M", "2", "--pz", "0.3",
                 *_TZ],
    "volkov-bessel": ["--family", "volkov-bessel", "--l", "1",
                      "--waveform", "pulse:0.2", *_TZ],
    "radial-b-laser": ["--family", "radial-b-laser", "--n", "1", "--M", "1",
                       "--waveform", "linear:0.25", *_TZ],
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name", sorted(GOLDEN_MAPS))
def test_eval_output_matches_golden_bytes(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    code = cli.main(["eval", *GOLDEN_MAPS[name], "--grid-x=-1:1:3",
                     "--grid-y=0:2:3", "--format", fmt, "--out", str(out)])
    assert code == 0
    golden = (GOLDEN / out.name).read_bytes()
    assert out.read_bytes() == golden
    # the fixtures hold the awkward cases of float text: exponent form, and
    # negative zero in the uniform-field maps
    assert b"e-1" in golden
    if name == "uniform-b":
        assert {"csv": b",-0,", "jsonl": b": -0.0,"}[fmt] in golden


# tests/golden holds these maps at B = 1.3 and m = 0.7 as jsonl, written
# before the field layer read each magnetic field through one description
# (`catalog._axial`): at B = m = 1, the other maps' values, a slip in a power
# of B or m cannot show
@pytest.mark.parametrize("name", ["redmond", "radial-b-laser"])
def test_eval_at_non_unit_field_and_mass_matches_golden_bytes(name, tmp_path):
    out = tmp_path / "map.jsonl"
    assert cli.main(["eval", *GOLDEN_MAPS[name], "--B", "1.3", "--mass", "0.7",
                     "--grid-x=-1:1:3", "--grid-y=0:2:3", "--format", "jsonl",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == \
        (GOLDEN / f"{name}-B1.3-m0.7.jsonl").read_bytes()


# tests/golden holds these maps as jsonl, written before the dressing read
# its plane wave through one evaluation: a pulse-dressed magnetic state near
# the pulse's center (xi = 6 omega), where its envelope and slope both show,
# on the lab axis too, which neither state's field is singular on
PULSE_MAPS = {
    "redmond": ["--family", "redmond", "--n", "1", "--omega", "1.1"],
    "radial-b-laser": ["--family", "radial-b-laser", "--n", "1", "--M", "1"],
}


@pytest.mark.parametrize("name", sorted(PULSE_MAPS))
def test_eval_of_a_pulse_dressed_map_matches_golden_bytes(name, tmp_path):
    out = tmp_path / "map.jsonl"
    assert cli.main(["eval", *PULSE_MAPS[name], "--waveform", "pulse:0.2",
                     "--grid-t=6.3:6.3:1", "--grid-z=0.3:0.3:1",
                     "--grid-x=-1:1:3", "--grid-y=0:2:3", "--axis-exclude",
                     "0", "--format", "jsonl", "--out", str(out)]) == 0
    golden = (GOLDEN / f"{name}-pulse.jsonl").read_bytes()
    assert out.read_bytes() == golden
    assert len(golden.splitlines()) == 10  # the meta line and 9 rows


# a transverse grid, on which t and z are constant columns, and one on which
# every coordinate varies
MAP_GRIDS = {
    "transverse": cli._grid_points({
        "grid_t": "0.7:0.7:1", "grid_x": "0.5:5:6", "grid_y": "0.5:5:6",
        "grid_z": "0.4:0.4:1"}),
    "t and z vary": cli._grid_points({
        "grid_t": "0:1.9:3", "grid_x": "0.5:5:5", "grid_y": "-2:2:5",
        "grid_z": "-0.4:0.4:2"}),
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("grid", sorted(MAP_GRIDS))
def test_map_text_is_bit_for_bit_its_reference(grid, fmt):
    # every default spec's map, its constant columns (t and z of a
    # transverse grid, a stationary state's zero columns) written once,
    # against the writer that formats every value of every row
    for group in verify.default_specs().values():
        for spec in group:
            table = cli._evaluate(spec, MAP_GRIDS[grid])
            assert "".join(cli._map_text("", table, fmt)) \
                == oracles.map_rows(table, fmt), verify.spec_label(spec)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("exclude, rows", [("100", 0), ("0", 1)])
def test_map_of_no_row_or_one_row_is_its_reference(exclude, rows, fmt,
                                                   tmp_path):
    # an empty map (every point inside --axis-exclude) is its head alone,
    # and a one-row map's columns are all constant
    out = tmp_path / "map"
    assert cli.main(["eval", "--family", "redmond", "--n", "1",
                     "--waveform", "circular:0.3", "--grid-x=0.5:0.5:1",
                     "--grid-y=0.7:0.7:1", "--axis-exclude", exclude,
                     "--format", fmt, "--out", str(out)]) == 0
    lines = out.read_bytes().decode().splitlines(keepends=True)
    head = {"csv": 2, "jsonl": 1}[fmt]
    assert len(lines) == head + rows
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1,
                            waveform=waveforms.circular(0.3))
    table = cli._evaluate(spec, np.array([[0.0, 0.5, 0.7, 0.0]]))[:rows]
    assert "".join(lines[head:]) == oracles.map_rows(table, fmt)


_AWKWARD = np.array([5e-324, 1e16, 1e-5, -0.0])
_VALUES = st.sampled_from([0.0, -0.0, *_AWKWARD, -5e-324, -1e16, 0.1, 1e300]) \
    | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def map_tables(draw):
    """A table of a map's 28 columns: one mixes 0.0 and -0.0, one is
    constant but in its last row, one holds the awkward values of float
    text, and some others are constant."""
    rows = draw(st.integers(2, 9))
    table = np.array(draw(st.lists(
        st.lists(_VALUES, min_size=28, max_size=28),
        min_size=rows, max_size=rows)))
    mixed, last, awkward, *rest = draw(st.permutations(range(28)))
    table[:, mixed] = 0.0
    table[draw(st.integers(0, rows - 1)), mixed] = -0.0
    table[:, last] = value = draw(_VALUES)
    table[-1, last] = draw(_VALUES.filter(lambda v: repr(v) != repr(value)))
    table[:, awkward] = np.roll(np.resize(_AWKWARD, rows),
                                draw(st.integers(0, 3)))
    for col in rest[:draw(st.integers(0, len(rest)))]:
        table[:, col] = table[0, col]
    return table


@given(map_tables(), st.sampled_from([1, 2, 3, 1024]))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_map_text_of_drawn_tables_is_its_reference(table, block):
    # blocks of 1 to 3 rows split the table, the last block short
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        for fmt in ("csv", "jsonl"):
            assert "".join(cli._map_text("", table, fmt)) \
                == oracles.map_rows(table, fmt)


def test_eval_reads_the_spinor_into_its_parts():
    # the map's psi columns are the spinor's real and imaginary parts, bit
    # for bit, read as a view of the C-ordered spinor
    spec = verify.default_specs()[cat.Family.VOLKOV_BESSEL][0]
    points = MAP_GRIDS["t and z vary"]
    table = cli._evaluate(spec, points)
    psi = cat.spinor(spec)(*points.T)
    assert table[:, 4:12].tobytes() == np.stack(
        [psi.real, psi.imag], axis=-1).reshape(-1, 8).tobytes()


def test_verify_of_checks_that_apply_to_no_family_is_a_usage_error(capsys):
    # the volkov row applies to volkov-bessel alone; the suite refuses the
    # selection before it draws a point
    assert cli.main(["verify", "--family", "uniform-b", "--check",
                     "volkov"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: the selected checks do not apply "
                            "to the selected families; nothing was checked\n")


def test_eval_refuses_a_1_over_r_axis_in_its_own_frame(capsys):
    # a dressed 1/r state is singular on the shifted axis, not the lab one,
    # so its map through x = y = 0 is finite; a stationary map through the
    # axis is refused for the field there, also where the density vanishes
    # on it (M = 2)
    grid = ["--grid-x=-1:1:3", "--grid-y", "0:0:1", "--axis-exclude", "0"]
    assert cli.main(["eval", *GOLDEN_MAPS["radial-b-laser"], *grid,
                     "--format", "jsonl"]) == 0
    rows = [json.loads(line)
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r["x"], r["y"]) for r in rows] == [(-1, 0), (0, 0), (1, 0)]
    assert all(math.isfinite(v) for r in rows for v in r.values())
    for M in ("0", "2"):
        assert cli.main(["eval", "--family", "radial-b", "--n", "1", "--M", M,
                         *grid]) == 3
        assert capsys.readouterr().err == \
            "domain error: the 1/r field is singular on its axis, r' = 0\n"


def test_eval_excludes_the_cylinder_around_the_shifted_axis(capsys):
    # --axis-exclude measures r' = hypot(x', y'), the radius from the axis a
    # dressing shifts: for this radial-b-laser map that axis is at
    # (0, -0.010913032613053).  Measured at the lab radius, as before, the
    # point 1e-9 from it was kept and written with eBz = 2.5e8 and
    # eBy = 1.8e7, and the point on it ended the map with exit 3
    argv = ["eval", *GOLDEN_MAPS["radial-b-laser"], "--format", "jsonl"]
    _, (dx, dy), _ = cat._plane_wave(
        cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=1,
                         waveform=waveforms.linear(0.25)), 0.7, 0.4)
    assert (dx, dy) == (0.0, 0.010913032613053)
    for x, y in (("1e-9", "-0.010913032613053"), ("0", "-0.010913032613053")):
        assert cli.main([*argv, f"--grid-x={x}:{x}:1",
                         f"--grid-y={y}:{y}:1"]) == 0
        assert capsys.readouterr().out.count("\n") == 1  # the meta line
    # the lab axis, 0.011 from the shifted one, is kept and finite
    assert cli.main([*argv, "--grid-x=0:0:1", "--grid-y=0:0:1"]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[1])
    assert row["eBz"] == pytest.approx(1.0 / (4.0 * 0.010913032613053))


@pytest.mark.parametrize("family, orbital, alone", [
    # M = 2l: the state of --l 2 alone
    ("uniform-b", ["--l", "2", "--M", "4"], ["--l", "2"]),
    # --M sets a 1/r-field state, and an --l beside it is 0 (or M)
    ("radial-b", ["--l", "0", "--M", "1"], ["--M", "1"]),
], ids=["uniform", "radial"])
def test_eval_reads_l_beside_M(family, orbital, alone, capsys):
    grid = ["--family", family, "--n", "1", "--grid-x=0.5:1:2",
            "--grid-y=0.5:0.5:1"]
    rows = []
    for argv in (orbital, alone):
        assert cli.main(["eval", *grid, *argv]) == 0
        rows.append(capsys.readouterr().out.splitlines()[2:])  # past meta
    assert len(rows[0]) == 2 and rows[0] == rows[1]


def test_parser_reuse_carries_no_state(tmp_path, monkeypatch):
    # one parser serves every call in a process: each call must give what a
    # freshly built parser gives, whatever the call before it set
    (tmp_path / "cfg.json").write_text(json.dumps({"n": 2, "l": 1}))
    grid = ["--family", "uniform-b", "--grid-x", "0.25:1:2", "--grid-y",
            "0:0:1"]
    calls = [
        ["eval", *grid, "--format", "jsonl", "--axis-exclude", "0.5",
         "--out", "a"],
        ["eval", *grid, "--out", "b"],
        ["eval", "--config", "../cfg.json", *grid, "--out", "c"],
        ["eval", *grid, "--out", "d"],
        ["verify", "--check", "dirac", "--points", "2", "--out", "e"],
        ["verify", "--points", "2", "--out", "f"],
    ]

    def run(where):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        codes = [cli.main(argv) for argv in calls]
        return codes, {argv[-1]: Path(argv[-1]).read_text() for argv in calls}

    reused = run("reused")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run("fresh") == reused
    files = reused[1]
    # csv with the default exclusion keeps the point at r = 0.25
    assert files["b"].splitlines()[1].startswith("t,x,y,z,")
    assert len(files["a"].splitlines()) == 2
    assert len(files["b"].splitlines()) == len(files["d"].splitlines()) == 4
    assert '"n": 2' in files["c"] and '"n"' not in files["d"]
    names = {r["name"] for r in json.loads(files["f"])["records"]}
    assert names == set(verify.CHECK_NAMES)


def test_verify_subset_passes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--family", "uniform-b", "--check", "dirac",
                     "--check", "kinematics", "--points", "6",
                     "--seed", "42", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["meta"]["config"]["seed"] == 42
    assert "histogram" in payload
    assert "wall_clock" not in payload


def test_residual_histogram_counts_every_record():
    # one count per edge: the last holds the records at or above the last
    # edge, 1, and a NaN residual, so that every record is counted
    report = mock.Mock(records=[mock.Mock(max_residual=r) for r in (
        0.0, 5e-17, 0.5, 1.0, 7.0, math.inf, math.nan)])
    hist = cli._residual_histogram(report)
    assert hist["edges"][0] == 0.0 and hist["edges"][-1] == 1.0
    assert hist["counts"] == [2] + [0] * 15 + [1, 4]


@pytest.mark.parametrize("seed, points", [(20240801, 20), (1, 100), (7, 100)])
def test_verify_report_matches_golden_bytes(seed, points, capsys):
    # tests/golden/verify-20240801.json is this report as written once each
    # Bessel value stopped depending on the rest of its batch; sharing one
    # spinor evaluation between the checks left it unchanged.  The seed 1
    # and 7 reports, at the headline 100 points, were written before each
    # closed form was evaluated once per spec, on the union of the points
    # its checks read, and pin that every check still reads the same bits.
    # All of them, and the negative-control reports, were rewritten once the
    # free beam's constant stopped jumping by sqrt(2) at p_z = 0: only the
    # p_z = 0.5 free-bessel records and the histogram moved, at round-off
    assert cli.main(["verify", "--points", str(points), "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"verify-{seed}.json").read_bytes()


@pytest.mark.parametrize("control", list(verify.FAULTS))
def test_negative_control_report_matches_golden_bytes(control, capsys):
    # tests/golden/verify-20240801-<control>.json is this report as written
    # before the constant gamma products became signed gathers: a kernel
    # change that moves a failing residual shows here
    assert cli.main(["verify", "--points", "20", "--seed", "20240801",
                     "--negative-control", control]) == 1
    captured = capsys.readouterr()
    assert captured.out.encode() == \
        (GOLDEN / f"verify-20240801-{control}.json").read_bytes()
    assert "FAIL dirac" in captured.err


def test_verify_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--family", "radial-b", "--check", "dirac",
            "--points", "5", "--seed", "7"]
    cli.main([*args, "--out", str(a)])
    cli.main([*args, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_negative_control_exit_code(tmp_path, capsys):
    # the injected fault makes the dirac checks fail at their normal
    # tolerance: exit code 1 with the failing check named on stderr
    out = tmp_path / "neg.json"
    code = cli.main(["verify", "--family", "uniform-b", "--check", "dirac",
                     "--points", "4", "--seed", "3",
                     "--negative-control", "scale-potential",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL dirac" in err
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    for rec in payload["records"]:
        assert rec["max_residual"] > 1e-4


def test_verify_unknown_check_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--check", "doesnotexist", "--points", "5",
                     "--out", str(out)])
    assert code == 2
    assert "doesnotexist" in capsys.readouterr().err
    assert not out.exists()


def test_verify_zero_points_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--points", "0", "--out", str(out)])
    assert code == 2
    assert "--points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["--fd-step", "0"], "--fd-step"),
    (["--fd-step", "-0.001"], "--fd-step"),
    (["--fd-step", "10"], "--fd-step"),
    (["--fd-step", "nan"], "--fd-step"),
    (["--fd-step", "inf"], "--fd-step"),
    (["--seed", "-1"], "--seed"),
], ids=["step-0", "step-negative", "step-10", "step-nan", "step-inf",
        "seed-negative"])
def test_verify_bad_flag_is_usage_error_before_any_check(
        args, flag, tmp_path, capsys, monkeypatch):
    def no_suite(**kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_suite", no_suite)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--points", "2", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and flag in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_checks_absent_from_family_is_usage_error(tmp_path):
    # the radial-profile check runs on stationary families only
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--family", "redmond", "--check", "ode",
                     "--points", "2", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_verify_negative_control_touching_no_check_is_usage_error(tmp_path,
                                                                   capsys):
    # a control whose fault reaches none of the selected checks would report
    # a detection it never made
    for control, check in (("scale-potential", "ode"),
                           ("perturb-profile", "continuity")):
        out = tmp_path / f"{control}.json"
        code = cli.main(["verify", "--negative-control", control,
                         "--check", check, "--points", "5", "--out", str(out)])
        assert code == 2
        assert "touches none" in capsys.readouterr().err
        assert not out.exists()


def test_verify_unknown_negative_control_in_config_is_usage_error(tmp_path,
                                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"negative_control": "bogus",
                               "family": "uniform-b", "check": ["dirac"],
                               "points": 3}))
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def test_verify_constraints_check_runs_inversion(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--family", "uniform-b", "--check",
                     "constraints", "--points", "2", "--out", str(out)])
    assert code == 0
    names = {rec["name"] for rec in json.loads(out.read_text())["records"]}
    assert names == {"inversion", "constraints"}


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in the report")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("args, record, family, extra, reason", [
    # rho = 8e-8 at r = 5.64: the inversion skips the only point
    (["--seed", "4", "--check", "inversion", "--family", "uniform-b"],
     "inversion", "uniform-b n=0 ", {"skipped": 1},
     "no point checked: 1 of 1 skipped"),
    # rho < 5e-3 J^0: the kinematics check excludes the only point
    (["--seed", "0", "--check", "kinematics"],
     "kinematics", "radial-b-laser n=1 l=0 M=0 ", {"excluded": 1},
     "no point checked: 1 of 1 excluded"),
], ids=["inversion-all-skipped", "kinematics-all-excluded"])
def test_verify_record_that_checked_no_point_fails(tmp_path, capsys, args,
                                                   record, family, extra,
                                                   reason):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--points", "1", *args, "--out", str(out)])
    assert code == 1
    recs = [r for r in _strict_json(out.read_text())["records"]
            if r["family"].startswith(family)]
    failed = [r for r in recs if not r["passed"]]
    names = [record, *(["constraints"] if record == "inversion" else [])]
    assert [r["name"] for r in failed] == names
    assert extra.items() <= failed[0]["extra"].items()
    assert all(r["extra"]["reason"] == reason for r in failed)
    # the stderr summary names the reason for every such record
    err = capsys.readouterr().err.splitlines()
    for name in names:
        assert any(line.startswith(f"FAIL {name} [{family}")
                   and line.endswith(f"] {reason}") for line in err), err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "uniform-b", "n": 1,
                               "grid_x": "1:1:1", "grid_y": "1:1:1"}))
    out = tmp_path / "o.csv"
    code = cli.main(["eval", "--config", str(cfg), "--n", "2",
                     "--out", str(out)])
    assert code == 0
    meta = json.loads(out.read_text().splitlines()[0][2:])
    assert meta["config"]["n"] == 2  # flag overrides file


def test_verify_redmond_dirac_at_1000_points(tmp_path):
    out = tmp_path / "redmond.json"
    code = cli.main(["verify", "--family", "redmond", "--check", "dirac",
                     "--points", "1000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(rec["max_residual"] <= 1e-7 for rec in payload["records"])


def test_module_entrypoint_runs():
    proc = run_cli(["--version"])
    assert proc.stdout.strip()
