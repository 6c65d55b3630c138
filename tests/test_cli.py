"""End-to-end tests for the command-line interface.

Each command is driven through main(argv) exactly as the console script
would run it, asserting exit codes and the frozen output formats.
"""

import argparse
import cmath
import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm import cli, coarse, histories, lagrangian, propagator
from groupoidqm import groupoid as groupoid_module
from groupoidqm.groupoid import FiniteGroupoid, build_a2, build_pair_groupoid, multiplication_table
from groupoidqm.coarse import pair_index
from groupoidqm.propagator import PropagatorModel, qubit_propagator, solve_unitary_gammas
from groupoidqm.cli import (
    MAX_ELEMENTS,
    MAX_SWEEP_POINTS,
    SWEEP_HEADER,
    ConfigError,
    RunConfig,
    main,
    parse_config,
)

from groupoid_text import groupoid_to_text

PI_HALF = format(math.pi / 2, ".17g")
SQRT2 = format(math.sqrt(2.0), ".17g")

SOLVE_SQRT2 = f"gamma_mode = solve\nmu = {PI_HALF}\ngauge = {SQRT2}\n"


def cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and name == key:
            return value
    raise AssertionError(f"no line {key!r} in output:\n{out}")


def grab_complex(out, key):
    re, im = grab(out, key).split(",")
    return complex(float(re), float(im))


def test_parse_config_defaults():
    cfg = parse_config("# only a comment\n\n")
    assert cfg == RunConfig()
    assert cfg.groupoid_spec == "a2"
    assert cfg.gamma_mode == "unit"
    assert cfg.sweep is None


def test_parse_config_reads_every_key():
    # No one config holds every key: each key is read only where some command
    # reads it, so the keys are spread over three configs.
    texts = (
        "groupoid = a2\nV_plus = 0.25\nV_minus = -0.5\nmu = 1.5\ndelta = 0.125\np_plus = 0.375\n"
        "tau = 2.0\nhbar = 0.5\nsteps = 4\ngamma_mode = explicit\n"
        "gamma_mm = 1,0.5\ngamma_mp = 0,1\ngamma_pm = 2,-1\ngamma_pp = -1,0\n",
        "gamma_mode = solve\nLambda = 0.5\nSigma = -0.25\ngauge = 0.75\n"
        "sweep_parameter = mu_tau_over_hbar\nsweep_from = 0\nsweep_to = 6.28\nsweep_points = 5\n",
        "groupoid = pair:3\npair_lagrangian = constant:2.0\ntau = 0.5\nhbar = 3\nsteps = 6\n",
    )
    assert {line.split(" = ")[0] for text in texts for line in text.splitlines()} == set(cli._KEYS)
    explicit, solve, pair = (parse_config(text) for text in texts)
    assert (explicit.v_plus, explicit.v_minus, explicit.mu, explicit.delta) == (0.25, -0.5, 1.5, 0.125)
    assert (explicit.p_plus, explicit.tau, explicit.hbar, explicit.steps) == (0.375, 2.0, 0.5, 4)
    assert explicit.gamma_mode == "explicit"
    assert (explicit.gamma_mm, explicit.gamma_mp, explicit.gamma_pm, explicit.gamma_pp) == (1 + 0.5j, 1j, 2 - 1j, -1)
    assert (solve.gamma_mode, solve.lam, solve.sigma, solve.gauge) == ("solve", 0.5, -0.25, 0.75)
    assert solve.sweep == ("mu_tau_over_hbar", 0.0, 6.28, 5)
    assert (pair.groupoid_spec, pair.pair_lagrangian) == ("pair:3", "constant:2.0")
    assert (pair.tau, pair.hbar, pair.steps) == (0.5, 3.0, 6)
    for field in dataclasses.fields(RunConfig):
        assert any(getattr(cfg, field.name) != field.default for cfg in (explicit, solve, pair)), field.name


@pytest.mark.parametrize(
    "text, match",
    [
        ("mu 1.0", r"line 1, column 1: expected 'key = value'"),
        ("mu = 1\nmu = 2", r"line 2, column 1: duplicate key 'mu'"),
        ("cheese = 4", r"unknown key 'cheese'"),
        ("mu = abc", r"line 1, column 6: expected a real number"),
        ("gamma_mm = 1", r"expected 're,im'"),
        ("steps = -3", r"steps must be non-negative"),
        ("gamma_mode = magic", r"gamma_mode must be unit, explicit or solve"),
        ("sweep_parameter = mu_tau_over_hbar", r"sweep block incomplete"),
        (
            "sweep_parameter = tau\nsweep_from = 0\nsweep_to = 1\nsweep_points = 3",
            r"unsupported sweep parameter",
        ),
        (
            "sweep_parameter = mu_tau_over_hbar\nsweep_from = 0\n"
            "sweep_to = 1\nsweep_points = 1",
            r"sweep_points must be at least 2",
        ),
        ("tau = -1", r"line 1, column 7: tau must be positive"),
        ("hbar = 0", r"hbar must be positive"),
        ("p_plus = 0.75", r"p_plus must be in \[0, 1/2\]"),
    ],
)
def test_parse_config_rejects(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_sweep_points_ceiling_is_a_parse_error(tmp_path, capsys):
    # Only parsed, never swept, so nothing of the ceiling's size is allocated.
    block = "sweep_parameter = mu_tau_over_hbar\nsweep_from = 0\nsweep_to = 1\n"
    assert parse_config(block + f"sweep_points = {MAX_SWEEP_POINTS}").sweep[3] == MAX_SWEEP_POINTS
    message = f"line 4, column 16: sweep_points must be at most {MAX_SWEEP_POINTS}, got {MAX_SWEEP_POINTS + 1}"
    with pytest.raises(ConfigError) as exc:
        parse_config(block + f"sweep_points = {MAX_SWEEP_POINTS + 1}")
    assert str(exc.value) == message
    rc, out, err = run(capsys, "sweep", "-c", cfg_file(tmp_path, block + f"sweep_points = {MAX_SWEEP_POINTS + 1}\n"))
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_pair_size_ceiling_is_a_parse_error(tmp_path, capsys):
    # pair:33 is only parsed, so no label or table of it is built.
    assert parse_config("groupoid = pair:32\n").groupoid_spec == "pair:32"
    assert MAX_ELEMENTS == 32 * 32
    message = "line 2, column 12: pair:33 has 1089 elements, at most 1024 are allowed"
    with pytest.raises(ConfigError) as exc:
        parse_config("# over the ceiling\ngroupoid = pair:33\n")
    assert str(exc.value) == message
    cfg = cfg_file(tmp_path, "# over the ceiling\ngroupoid = pair:33\n")
    for argv in (("table",), ("validate",), ("coarse-grain", "--partition", "x1")):
        assert run(capsys, argv[0], "-c", cfg, *argv[1:]) == (1, "", f"error: {message}\n")
    with pytest.raises(ConfigError, match=r"^line 1, column 12: bad pair groupoid size 'x'$"):
        parse_config("groupoid = pair:x")
    # a size below 1 keeps its own message, however large its square
    cfg = cfg_file(tmp_path, "groupoid = pair:-40\n")
    assert run(capsys, "validate", "-c", cfg) == (1, "", "error: pair groupoid size must be at least 1\n")


def test_groupoid_file_past_the_ceiling_exits_1(tmp_path, capsys):
    gfile = tmp_path / "many.g"
    gfile.write_text("outcomes: o\n" + "".join(f"element: e{i} o o\n" for i in range(MAX_ELEMENTS + 1)),
                     encoding="utf-8")
    rc, out, err = run(capsys, "validate", "-c", cfg_file(tmp_path, f"groupoid = {gfile}\n"))
    assert (rc, out, err) == (1, "", f"error: line {MAX_ELEMENTS + 2}: more than MAX_ELEMENTS = 1024 elements\n")


def test_commands_at_the_element_ceiling_stay_within_the_stated_memory(tmp_path, capsys, monkeypatch):
    import tracemalloc

    cfg = cfg_file(tmp_path, "groupoid = pair:32\npair_lagrangian = index_diff:0.3\n")
    peaks = {}
    for command, stated_mib in (("validate", 9), ("table", 49)):
        # each command starts from an empty cache, so its peak includes the
        # pair:32 build that a one-command process pays
        monkeypatch.setattr(groupoid_module, "_PAIRS", {})
        tracemalloc.start()
        try:
            rc, out, _ = run(capsys, command, "-c", cfg)
            peaks[command] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert rc == 0 and out
        assert peaks[command] <= 1.25 * stated_mib, peaks


def test_sweep_at_the_point_ceiling_stays_within_the_stated_memory():
    # the text is built a block of rows at a time, so the CSV is held about twice:
    # the blocks and their joined text (~9.1 MB each here), beside the scan's columns
    import tracemalloc

    cfg = parse_config(
        f"sweep_parameter = mu_tau_over_hbar\nsweep_from = 0\nsweep_to = {2 * math.pi!r}\n"
        f"sweep_points = {MAX_SWEEP_POINTS}\n"
    )
    tracemalloc.start()
    try:
        rc, out = cli.cmd_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.count("\n") == MAX_SWEEP_POINTS + 1
    assert peak < 30e6, f"{peak / 1e6:.1f} MB"


def test_weight_file_naming_an_element_twice_exits_1(tmp_path, capsys):
    weights = tmp_path / "twice.weights"
    weights.write_text("(x1,x1) = 1,0\n(x1,x1) = 5,0\n", encoding="utf-8")
    cfg = cfg_file(tmp_path, f"groupoid = pair:2\npair_lagrangian = file:{weights}\n")
    message = f"error: bad weight file {str(weights)!r}: line 2: duplicate element '(x1,x1)'\n"
    for argv in (("validate",), ("pathsum", "--steps", "1")):
        assert run(capsys, argv[0], "-c", cfg, *argv[1:]) == (1, "", message)


def test_validate_a2(tmp_path, capsys):
    rc, out, err = run(capsys, "validate", "-c", cfg_file(tmp_path, "groupoid = a2\n"))
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        "outcomes = 2",
        "elements = 4",
        "axioms = ok",
        "lagrangian = self-adjoint",
    ]


def test_validate_pair_without_weights(tmp_path, capsys):
    rc, out, err = run(capsys, "validate", "-c", cfg_file(tmp_path, "groupoid = pair:3\n"))
    assert rc == 0
    assert "outcomes = 3" in out
    assert "elements = 9" in out
    assert "lagrangian = none" in out


def test_validate_weight_file(tmp_path, capsys):
    good = tmp_path / "good.weights"
    good.write_text(
        "(x1,x1) = 1,0\n(x2,x2) = -1,0\n(x1,x2) = 0,2\n(x2,x1) = 0,-2\n",
        encoding="utf-8",
    )
    cfg = cfg_file(tmp_path, f"groupoid = pair:2\npair_lagrangian = file:{good}\n")
    rc, out, err = run(capsys, "validate", "-c", cfg)
    assert rc == 0
    assert "lagrangian = self-adjoint" in out

    bad = tmp_path / "bad.weights"
    bad.write_text(
        "(x1,x1) = 0,0\n(x2,x2) = 0,0\n(x1,x2) = 1,2\n(x2,x1) = 1,2\n",
        encoding="utf-8",
    )
    cfg = cfg_file(tmp_path, f"groupoid = pair:2\npair_lagrangian = file:{bad}\n", "bad.cfg")
    rc, out, err = run(capsys, "validate", "-c", cfg)
    assert rc == 1
    assert "lagrangian = violation" in out
    assert "not self-adjoint" in out


@pytest.mark.parametrize(
    "spec, message",
    [
        ("file:{missing}", "cannot read weight file"),
        ("file:{unknown}", "bad weight file"),
        ("file:{nan}", "line 1: expected finite reals, got 'nan,0'"),
        ("file:{inf}", "line 2: expected finite reals, got '0,inf'"),
        ("bogus:1", "unknown pair_lagrangian kind 'bogus'"),
        ("constant", "pair_lagrangian must be kind:value"),
        ("constant:nan", "bad constant weight 'nan'"),
    ],
)
def test_validate_reports_lagrangian_config_errors_as_errors(tmp_path, capsys, spec, message):
    files = {"missing": tmp_path / "missing.weights"}
    for name, text in (
        ("unknown", "nope = 1,0\n"),
        ("nan", "(x1,x1) = nan,0\n(x2,x2) = 0,0\n(x1,x2) = 0,0\n(x2,x1) = 0,0\n"),
        ("inf", "(x1,x1) = 0,0\n(x2,x2) = 0,inf\n(x1,x2) = 0,0\n(x2,x1) = 0,0\n"),
    ):
        files[name] = tmp_path / f"{name}.weights"
        files[name].write_text(text, encoding="utf-8")
    cfg = cfg_file(tmp_path, f"groupoid = pair:2\npair_lagrangian = {spec.format(**files)}\n")
    rc, out, err = run(capsys, "validate", "-c", cfg)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_validate_broken_groupoid_file(tmp_path, capsys):
    text = groupoid_to_text(build_a2()).replace(
        "compose: alpha^-1 alpha = 1+", "compose: alpha^-1 alpha = 1-"
    )
    gfile = tmp_path / "broken.g"
    gfile.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "validate", "-c", cfg_file(tmp_path, f"groupoid = {gfile}\n"))
    assert rc == 1
    assert "composition-endpoints" in err


def test_table_matches_library(tmp_path, capsys):
    rc, out, err = run(capsys, "table", "-c", cfg_file(tmp_path, "groupoid = pair:2\n"))
    assert rc == 0
    assert out == multiplication_table(build_pair_groupoid(2))


def test_propagator_explicit_matches_library(tmp_path, capsys):
    text = "\n".join(
        [
            "gamma_mode = explicit",
            f"mu = {PI_HALF}",
            f"gamma_mm = {SQRT2},0",
            f"gamma_mp = {SQRT2},0",
            f"gamma_pm = {SQRT2},0",
            f"gamma_pp = {SQRT2},0",
        ]
    )
    rc, out, err = run(capsys, "propagator", "-c", cfg_file(tmp_path, text))
    assert rc == 0
    r2 = math.sqrt(2.0)
    u = qubit_propagator(
        PropagatorModel(
            0.0, 0.0, math.pi / 2, 0.0, 0.5, 1.0, 1.0,
            gamma_mm=r2, gamma_mp=r2, gamma_pm=r2, gamma_pp=r2,
        )
    )
    labels = ("-", "+")
    for i, b in enumerate(labels):
        for j, a in enumerate(labels):
            want = f"{u[i, j].real:.17g},{u[i, j].imag:.17g}"
            assert grab(out, f"U[{b}][{a}]") == want
    assert float(grab(out, "max_residual")) <= 1e-12
    assert float(grab(out, "relation1_gap")) == 0.0
    assert float(grab(out, "relation2_gap")) == 0.0
    assert float(grab(out, "global_phase_gap")) <= 1e-12
    for block in (1, 2):
        for entry in (1, 2, 3, 4):
            assert float(grab(out, f"residual_{block}_{entry}")) <= 1e-12


def test_propagator_solve_prints_gammas_and_power(tmp_path, capsys):
    cfg = cfg_file(tmp_path, SOLVE_SQRT2)
    rc, out, err = run(capsys, "propagator", "-c", cfg, "--power", "2")
    assert rc == 0
    r2 = math.sqrt(2.0)
    for key in ("gamma_mm", "gamma_mp", "gamma_pm", "gamma_pp"):
        assert abs(grab_complex(out, key) - r2) <= 1e-12
    assert abs(grab_complex(out, "U^2[-][+]") - 1j) <= 1e-12
    assert abs(grab_complex(out, "U^2[-][-]")) <= 1e-12


def test_propagator_requires_a2(tmp_path, capsys):
    rc, out, err = run(
        capsys, "propagator", "-c", cfg_file(tmp_path, "groupoid = pair:2\n")
    )
    assert rc == 1
    assert "propagator command requires a2" in err


@pytest.mark.parametrize("outcomes", ["- +", "+ -"])
@pytest.mark.parametrize("argv", [["propagator"], ["evolve", "--state", "1,0;0,0"]], ids=lambda a: a[0])
def test_qubit_commands_reject_a2_groupoid_files(tmp_path, capsys, outcomes, argv):
    # The qubit step matrix is fixed to a2's (-, +) order, so a groupoid file
    # equal to a2 is still rejected: its outcome order is the file's, not a2's.
    text = groupoid_to_text(build_a2()).replace("outcomes: - +", f"outcomes: {outcomes}")
    gfile = tmp_path / "a2.g"
    gfile.write_text(text, encoding="utf-8")
    assert cli._build_groupoid(RunConfig(groupoid_spec=str(gfile))) == build_a2()
    rc, out, err = run(capsys, *argv, "-c", cfg_file(tmp_path, f"groupoid = {gfile}\n"))
    assert rc == 1
    assert out == ""
    assert f"{argv[0]} command requires a2" in err


def test_propagator_infeasible_exits_2(tmp_path, capsys):
    # mu = 0 with Lambda = Sigma = 0 violates the global phase constraint
    rc, out, err = run(
        capsys, "propagator", "-c", cfg_file(tmp_path, "gamma_mode = solve\nmu = 0\n")
    )
    assert rc == 2
    assert out == ""
    assert "no unitary vertex factors satisfy the requested phases" in err
    assert "pinned candidate residual" in err


def test_pathsum_single_step_matches_propagator(tmp_path, capsys):
    text = "mu = 0.3\ndelta = 0.1\nV_plus = 0.2\nV_minus = -0.4\np_plus = 0.25\n"
    rc, out, err = run(capsys, "pathsum", "-c", cfg_file(tmp_path, text))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "row,col,re,im"
    u = qubit_propagator(PropagatorModel(0.2, -0.4, 0.3, 0.1, 0.25, 1.0, 1.0))
    idx = {"-": 0, "+": 1}
    seen = np.zeros((2, 2), dtype=complex)
    for line in lines[1:]:
        row, col, re, im = line.split(",")
        seen[idx[row], idx[col]] = complex(float(re), float(im))
    assert np.array_equal(seen, u)


def test_pathsum_semigroup_check(tmp_path, capsys):
    cfg = cfg_file(tmp_path, "mu = 0.7\nsteps = 5\n")
    rc, out, err = run(capsys, "pathsum", "-c", cfg, "--check-semigroup", "2+3")
    assert rc == 0
    assert float(grab(out, "semigroup_deviation")) <= 1e-15

    rc, out, err = run(capsys, "pathsum", "-c", cfg, "--check-semigroup", "2+2")
    assert rc == 1
    assert "does not add up" in err

    rc, out, err = run(capsys, "pathsum", "-c", cfg, "--check-semigroup", "nope")
    assert rc == 1
    assert "expects 'N1+N2'" in err


def test_pathsum_pair_requires_weights(tmp_path, capsys):
    rc, out, err = run(capsys, "pathsum", "-c", cfg_file(tmp_path, "groupoid = pair:3\n"))
    assert rc == 1
    assert "requires pair_lagrangian" in err


@pytest.mark.parametrize("steps", [20000, 10**18])
@pytest.mark.parametrize(
    "groupoid, size", [("", 2), ("groupoid = pair:8\npair_lagrangian = constant:0.5\n", 8)], ids=["a2", "pair8"]
)
def test_pathsum_huge_steps_print_promptly(tmp_path, capsys, groupoid, size, steps):
    # repeated squaring takes O(log steps) products, however many histories there are
    start = time.perf_counter()
    rc, out, err = run(capsys, "pathsum", "-c", cfg_file(tmp_path, f"{groupoid}steps = {steps}\n"))
    elapsed = time.perf_counter() - start
    assert rc == 0 and err == ""
    assert elapsed < 1.0
    header, *rows = out.splitlines()
    assert header == "row,col,re,im" and len(rows) == size * size
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[2:])


def test_pathsum_long_walk_on_trivial_groupoid(tmp_path, capsys):
    # one walk per start whatever the steps, so the cap never stops it
    text = "groupoid = pair:1\npair_lagrangian = constant:0.5\ntau = 0.1\nsteps = 3000\n"
    rc, out, err = run(capsys, "pathsum", "-c", cfg_file(tmp_path, text))
    assert rc == 0 and err == ""
    header, row = out.splitlines()
    assert header == "row,col,re,im"
    b, a, re, im = row.split(",")
    assert (b, a) == ("x1", "x1")
    assert abs(complex(float(re), float(im)) - cmath.exp(0.5j * 0.1 * 3000)) < 1e-12


def test_sweep_csv_and_determinism(tmp_path, capsys):
    text = (
        "gamma_mode = solve\n"
        "sweep_parameter = mu_tau_over_hbar\n"
        "sweep_from = 0\n"
        f"sweep_to = {format(2 * math.pi, '.17g')}\n"
        "sweep_points = 9\n"
    )
    cfg = cfg_file(tmp_path, text)
    rc, out, err = run(capsys, "sweep", "-c", cfg)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 10
    flags = [line.split(",")[1] for line in lines[1:]]
    assert flags == ["0", "0", "1", "0", "0", "0", "1", "0", "0"]
    for line in lines[1:]:
        assert len(line.split(",")) == 11

    rc2, out2, err2 = run(capsys, "sweep", "-c", cfg)
    assert rc2 == 0 and out2 == out

    dest = tmp_path / "sweep.csv"
    rc3, out3, err3 = run(capsys, "sweep", "-c", cfg, "--out", str(dest))
    assert rc3 == 0 and out3 == ""
    assert dest.read_text(encoding="utf-8") == out


_SWEEP_VALUES = {
    "V_plus": 0.3, "V_minus": -0.2, "delta": 0.1, "tau": 1.1, "hbar": 0.9, "Lambda": 0.5, "Sigma": -0.7,
}


def _sweep_reference(v, start, stop, count):
    """sweep stdout assembled row by row from single solves."""
    rows = [SWEEP_HEADER]
    for x in np.linspace(start, stop, count):
        sol = solve_unitary_gammas(
            v["V_plus"], v["V_minus"], x * v["hbar"] / v["tau"], v["delta"], v["p_plus"],
            v["tau"], v["hbar"], lam=v["Lambda"], sigma=v["Sigma"], gauge=v["gauge"],
        )
        m = sol.model
        gammas = ["%.17g" % part for z in (m.gamma_mm, m.gamma_pm, m.gamma_mp, m.gamma_pp)
                  for part in (z.real, z.imag)]
        rows.append(",".join(["%.17g" % x, "1" if sol.feasible else "0", "%.17g" % sol.min_residual, *gammas]))
    return "\n".join(rows) + "\n"


def _phase_root(v):
    """A mu tau / hbar meeting the phase constraint."""
    return (0.5 * ((v["Sigma"] + v["Lambda"]) / v["hbar"] + math.pi)
            - 0.5 * v["tau"] * (v["V_plus"] + v["V_minus"]) / v["hbar"])


@pytest.mark.parametrize(
    "p_plus, radicand, shift",
    [
        (0.35, 0.4, 0.0),  # on-grid feasible rows
        (0.5, 0.7, 0.0),  # p_plus = 1/2
        (0.35, -0.8, 0.0),  # negative radicand
        (0.2, 0.5, -6 * math.pi),  # negative grid
    ],
)
def test_sweep_matches_single_solves(tmp_path, capsys, monkeypatch, p_plus, radicand, shift):
    # 1801 points: the rows span more than two blocks, and the phase roots (rows 210 and 1110) lie on the grid
    v = dict(_SWEEP_VALUES, p_plus=p_plus)
    growth = math.exp(2.0 * v["delta"] * v["tau"] / v["hbar"])
    v["gauge"] = math.sqrt((1.0 - radicand) / (p_plus * (1.0 - p_plus) * growth))
    start = _phase_root(v) - 7 * math.pi / 30 + shift
    stop = start + 2 * math.pi
    text = "".join(f"{k} = {x!r}\n" for k, x in v.items()) + (
        f"sweep_parameter = mu_tau_over_hbar\nsweep_from = {start!r}\n"
        f"sweep_to = {stop!r}\nsweep_points = 1801\n"
    )
    blocks = []  # rows per _format call after the gamma columns': two values a row
    format_ = cli._format

    def recorded(template, values):
        blocks.append(len(values) // 2)
        return format_(template, values)

    monkeypatch.setattr(cli, "_format", recorded)
    rc, out, err = run(capsys, "sweep", "-c", cfg_file(tmp_path, text))
    assert rc == 0 and err == ""
    assert out == _sweep_reference(v, start, stop, 1801)
    assert (",1," in out) == (radicand > 0)
    assert sum(blocks[1:]) == 1801 and len(blocks) > 3, blocks


@pytest.mark.parametrize("budget", [1, 1000, cli._TABLE_BYTES])
def test_sweep_blocks_stay_within_the_byte_budget(tmp_path, capsys, monkeypatch, budget):
    # grid points of 24 characters, the widest a %.17g prints, beside solve-mode vertex factors
    text = (
        "delta = 0.1\np_plus = 0.35\nLambda = 0.5\nSigma = -0.7\ngauge = 0.9\n"
        "sweep_parameter = mu_tau_over_hbar\nsweep_from = -3e-300\nsweep_to = -1e-300\nsweep_points = 3000\n"
    )
    cfg = cfg_file(tmp_path, text)
    want = run(capsys, "sweep", "-c", cfg)
    blocks = []  # rows per _format call after the gamma columns'
    format_ = cli._format

    def recorded(template, values):
        blocks.append(len(values) // 2)
        return format_(template, values)

    monkeypatch.setattr(cli, "_format", recorded)
    monkeypatch.setattr(cli, "_TABLE_BYTES", budget)
    assert run(capsys, "sweep", "-c", cfg) == want and want[0] == 0
    rows = want[1].splitlines(keepends=True)[1:]
    assert sum(blocks[1:]) == len(rows) == 3000 and max(map(len, rows)) > 100
    for n in blocks[1:]:
        block, rows = rows[:n], rows[n:]
        assert sum(map(len, block)) <= max(budget, len(block[0])), (n, budget)


@pytest.mark.parametrize(
    "text, message",
    [
        ("sweep_from = -1e308\nsweep_to = 1e308\n", "(sweep_to - sweep_from = inf is not finite)"),
        ("sweep_from = 1e308\nsweep_to = -1e308\n", "(sweep_to - sweep_from = -inf is not finite)"),
        ("hbar = 10\nsweep_from = 0\nsweep_to = 1e308\n", "(exponent [0, 1] = (-0+infj) is not finite)"),
        ("delta = 400\nsweep_from = 0\nsweep_to = 1\n", "(exp of exponent 800.0 overflows)"),
        ("p_plus = 0\nsweep_from = 0\nsweep_to = 1\n", "solving requires p_plus in (0, 1/2]"),
    ],
)
def test_sweep_error_paths_exit_1(tmp_path, capsys, text, message):
    text += "sweep_parameter = mu_tau_over_hbar\nsweep_points = 5\n"
    rc, out, err = run(capsys, "sweep", "-c", cfg_file(tmp_path, text))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [("propagator",), ("propagator", "--power", "3"), ("evolve", "--state", "-0.6,0.1;0.3,-0.5")],
)
def test_solve_mode_reuses_the_solution(tmp_path, capsys, monkeypatch, argv):
    cfg = cfg_file(tmp_path, SOLVE_SQRT2)
    rc, out, err = run(capsys, argv[0], "-c", cfg, *argv[1:])
    assert rc == 0

    def rebuilt(model):
        raise AssertionError("the step was rebuilt after solving")

    monkeypatch.setattr(cli, "qubit_propagator", rebuilt)
    monkeypatch.setattr(cli, "_step_report", rebuilt)
    assert run(capsys, argv[0], "-c", cfg, *argv[1:]) == (0, out, err)


@pytest.mark.parametrize("text", ["mu = 0.3\n", "gamma_mode = explicit\ngamma_mm = 0.5,-1\nmu = 0.3\n"])
def test_propagator_builds_its_step_matrix_once(tmp_path, capsys, monkeypatch, text):
    calls = []
    kernel = propagator._kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(propagator, "_kernel", counted)
    rc, out, err = run(capsys, "propagator", "-c", cfg_file(tmp_path, text))
    assert rc == 0 and err == ""
    assert len(calls) == 1


@pytest.mark.parametrize("split, powers", [("7+7", [14, 7]), ("3+11", [14, 3, 11])])
def test_pathsum_builds_its_step_matrix_once(tmp_path, capsys, monkeypatch, split, powers):
    cfg = cfg_file(tmp_path, "steps = 14\nmu = 0.3\ndelta = 0.1\np_plus = 0.35\n")
    want = run(capsys, "pathsum", "-c", cfg, "--check-semigroup", split)
    builds, taken = [], []
    single_step_matrix, fixed_order_power = histories.single_step_matrix, histories.fixed_order_power

    def counted_build(*args):
        builds.append(args)
        return single_step_matrix(*args)

    def counted_power(m, n):
        taken.append(n)
        return fixed_order_power(m, n)

    for module in (cli, histories):
        monkeypatch.setattr(module, "single_step_matrix", counted_build)
        monkeypatch.setattr(module, "fixed_order_power", counted_power)
    assert run(capsys, "pathsum", "-c", cfg, "--check-semigroup", split) == want
    assert want[0] == 0 and "semigroup_deviation = " in want[1]
    assert len(builds) == 1 and taken == powers


def test_sweep_rows_at_an_overflowing_gauge(tmp_path, capsys):
    # s < 0 at every point; the candidate's Frobenius norms would pass the float range
    v = dict(_SWEEP_VALUES, p_plus=0.35, gauge=1e100)
    text = "".join(f"{k} = {x!r}\n" for k, x in v.items()) + (
        "sweep_parameter = mu_tau_over_hbar\nsweep_from = 0\nsweep_to = 6.25\nsweep_points = 26\n"
    )
    rc, out, err = run(capsys, "sweep", "-c", cfg_file(tmp_path, text))
    assert rc == 0 and err == ""
    assert out == _sweep_reference(v, 0.0, 6.25, 26)
    assert all(row.split(",")[1] == "0" for row in out.splitlines()[1:])


@pytest.mark.parametrize("argv", [("propagator",), ("propagator", "--power", "2"), ("evolve", "--state", "1,0;0,0")])
def test_overflowing_infeasible_point_exits_2(tmp_path, capsys, argv):
    # infeasible (s < 0), and the report's norms would overflow: the verdict is infeasibility
    cfg = cfg_file(tmp_path, "gamma_mode = solve\ngauge = 1e100\n")
    rc, out, err = run(capsys, argv[0], "-c", cfg, *argv[1:])
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: no unitary vertex factors") and "pinned candidate residual" in err


_SOLVE_POINT = (
    "gamma_mode = solve\nV_plus = 0.3\nV_minus = -0.1\ndelta = 0.1\np_plus = 0.3\n"
    "Lambda = 0.4\nSigma = 0.2\n"
)


@pytest.mark.parametrize("argv", [("propagator",), ("propagator", "--power", "3"), ("evolve", "--state", "1,0;0,1")])
@pytest.mark.parametrize(
    "text, residual",
    [
        # s = 1 - 9 p+ p- exp(0.2) < 0: the candidate's residual is |s|
        ("mu = 1.7707963267948966\ngauge = 3\n", "1.3084512129227206"),
        # s > 0, but mu is off the phase level
        ("mu = 0.3\ngauge = 1.5\n", "0.98309959557221593"),
    ],
    ids=["negative_radicand", "mu_off_level"],
)
def test_infeasible_point_exits_2_with_its_residual(tmp_path, capsys, argv, text, residual):
    # exit 2, not the exit 1 of tests/errors/: the exact stderr is pinned here
    rc, out, err = run(capsys, argv[0], "-c", cfg_file(tmp_path, _SOLVE_POINT + text), *argv[1:])
    assert (rc, out) == (2, "")
    assert err == (
        "error: no unitary vertex factors satisfy the requested phases; "
        f"pinned candidate residual {residual}\n"
    )


def test_labels_holding_percent_signs_and_braces_print_literally(tmp_path, capsys):
    # a label is literal text in the output templates
    gfile = tmp_path / "g.txt"
    gfile.write_text(groupoid_to_text(build_pair_groupoid(("a%d", "b{x}"))), encoding="utf-8")
    cfg = cfg_file(tmp_path, f"groupoid = {gfile}\npair_lagrangian = constant:0.5\n")
    rc, out, err = run(capsys, "pathsum", "-c", cfg, "--steps", "1")
    assert rc == 0 and err == ""
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["a%d", "a%d"], ["a%d", "b{x}"], ["b{x}", "a%d"], ["b{x}", "b{x}"]
    ]
    rc, out, err = run(capsys, "coarse-grain", "-c", cfg, "--partition", "a%d|b{x}")
    assert rc == 0 and err == ""
    assert out.endswith("lagrangian:\n(a%d,a%d) = 0.5,0\n(a%d,b{x}) = 0.5,0\n(b{x},a%d) = 0.5,0\n(b{x},b{x}) = 0.5,0\n")


def test_sweep_requires_block(tmp_path, capsys):
    rc, out, err = run(capsys, "sweep", "-c", cfg_file(tmp_path, "mu = 1\n"))
    assert rc == 1
    assert "requires a sweep block" in err


def test_evolve_two_steps(tmp_path, capsys):
    cfg = cfg_file(tmp_path, SOLVE_SQRT2)
    rc, out, err = run(capsys, "evolve", "-c", cfg, "--state", "1,0;0,0", "--steps", "2")
    assert rc == 0
    assert abs(grab_complex(out, "psi[-]")) <= 1e-12
    assert abs(grab_complex(out, "psi[+]") - 1j) <= 1e-12
    assert abs(float(grab(out, "norm")) - 1.0) <= 1e-12


def test_evolve_state_with_leading_minus(tmp_path, capsys):
    cfg = cfg_file(tmp_path, SOLVE_SQRT2)
    attached = run(capsys, "evolve", "-c", cfg, "--state=-1,0;0,0", "--steps", "2")
    separate = run(capsys, "evolve", "-c", cfg, "--state", "-1,0;0,0", "--steps", "2")
    assert attached[0] == 0
    assert separate == attached


def test_evolve_rejects_bad_states(tmp_path, capsys):
    cfg = cfg_file(tmp_path, SOLVE_SQRT2)
    rc, out, err = run(capsys, "evolve", "-c", cfg, "--state", "0,0;0,0")
    assert rc == 1
    assert "nonzero norm" in err

    rc, out, err = run(capsys, "evolve", "-c", cfg, "--state", "1,0")
    assert rc == 1
    assert "state needs 2 components" in err


@pytest.mark.parametrize(
    "scale, state, unit_state", [(1e-200, "1e-200,0;0,0", "1,0;0,0"), (1e200, "1e200,0;1e200,0", "1,0;1,0")]
)
def test_evolve_at_extreme_state_scales(tmp_path, capsys, scale, state, unit_state):
    # the norm neither underflows to zero nor overflows on the way to a finite result
    cfg = cfg_file(tmp_path, "mu = 0.3\n")
    rc, out, err = run(capsys, "evolve", "-c", cfg, "--state", state)
    assert rc == 0 and err == ""
    unscaled = run(capsys, "evolve", "-c", cfg, "--state", unit_state)[1]
    for key in ("psi[-]", "psi[+]"):
        assert grab_complex(out, key) == pytest.approx(scale * grab_complex(unscaled, key), rel=1e-15)
    assert float(grab(out, "norm")) == pytest.approx(scale * float(grab(unscaled, "norm")), rel=1e-15)


def test_propagator_report_near_the_float_range(tmp_path, capsys):
    # every printed figure is finite (~2.5e199), though its square is not
    cfg = cfg_file(tmp_path, "gamma_mode = explicit\ngamma_mm = 1e100,0\n")
    rc, out, err = run(capsys, "propagator", "-c", cfg)
    assert rc == 0 and err == ""
    for key in ("residual_1_1", "max_residual", "frobenius_left", "frobenius_right"):
        assert float(grab(out, key)) == pytest.approx(2.5e199, rel=1e-15)


class _OracleUsageError(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OracleUsageError(message)


def _argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser the table-driven one replaced, verbatim: the oracle for argv."""
    parser = _OracleParser(prog="groupoidqm", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_OracleParser)

    def common(p: _OracleParser) -> None:
        p.add_argument("-c", "--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="write output to this file")

    common(sub.add_parser("validate", help="check groupoid axioms and weight self-adjointness"))
    common(sub.add_parser("table", help="print the multiplication table"))
    p = sub.add_parser("propagator", help="print the one-step matrix and unitarity report")
    common(p)
    p.add_argument("--power", type=int, default=None, help="also print the N-th power")
    p = sub.add_parser("pathsum", help="sum over histories as an outcome-indexed CSV")
    common(p)
    p.add_argument("--steps", type=int, default=None, help="number of steps (overrides config)")
    p.add_argument("--check-semigroup", default=None, metavar="N1+N2",
                   help="verify the N1+N2 factorization")
    common(sub.add_parser("sweep", help="unitarity feasibility scan as CSV"))
    p = sub.add_parser("evolve", help="apply N propagation steps to a state")
    common(p)
    p.add_argument("--state", required=True, help="initial state 're,im;re,im'")
    p.add_argument("--steps", type=int, default=None, help="number of steps (overrides config)")
    p = sub.add_parser("coarse-grain", help="quotient a pair groupoid by an outcome partition")
    common(p)
    p.add_argument("--partition", required=True, help="blocks as 'x1,x2|x3,x4'")
    return parser


ORACLE = _argparse_oracle()


def _oracle_parse(argv):
    try:
        return vars(ORACLE.parse_args(argv))
    except _OracleUsageError:
        return "usage error"


def _new_parse(argv):
    try:
        command, values = cli._parse_argv(argv)
    except cli._UsageError:
        return "usage error"
    return {"command": command, **values}


# Mostly well-formed values; each kind of bad one now and then.  A value of
# exactly '--' is left out: argparse takes it for its end-of-options marker
# even when attached ('--out=--' sets out to []).
_INT_VALUES = st.one_of(st.integers(-20, 20).map(str), st.sampled_from(["two", "", "1.5", " 3", "+4", "-x"]))
_STR_VALUES = st.text(alphabet="-=,;|+ ./abcx0123456789", max_size=8).filter(lambda v: v != "--")
_LONGS = {o.long: o for options in ((cli._CONFIG, cli._OUT), *(c[2] for c in cli._COMMANDS.values())) for o in options}


@st.composite
def _argv(draw):
    """(argv, the same argv with every separate value attached by '=', the values)."""
    command = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["bogus", "tabl", "", "-x"]))
    own = [o.long for o in cli._COMMANDS.get(command, (None, None, ()))[2]]
    raw, attached, values = [command], [command], []
    kinds = ["-c"] * draw(st.sampled_from([0, 1, 1, 1, 2]))
    kinds += draw(st.lists(st.sampled_from(["-c", "own", "own", "own", "own", "long", "unknown", "stray"]), max_size=4))
    for kind in draw(st.permutations(kinds)):
        if kind == "stray":  # a positional token where an option belongs
            token = draw(st.sampled_from(["x", "table", "", "-", "-7", "--bogus"]))
            raw.append(token)
            attached.append(token)
            continue
        if kind == "unknown":
            name = draw(st.sampled_from(["--bogus", "--outfile", "-x"]))
            value = draw(_STR_VALUES)
        else:
            pool = own + ["--out"] if kind == "own" else sorted(_LONGS)
            name = "--config" if kind == "-c" else draw(st.sampled_from(pool))
            value = draw(_INT_VALUES if _LONGS[name].convert is int else _STR_VALUES)
            if draw(st.booleans()):
                name = name[: draw(st.integers(3, len(name)))]  # a prefix, unique or not
            if kind == "-c" and draw(st.booleans()):
                name = "-c"
        values.append(value)
        form = draw(st.sampled_from(["separate", "separate", "equals", "glued"]))
        if form == "glued" and name == "-c" and value:
            raw.append("-c" + value)
            attached.append("-c" + value)
        elif form == "equals":
            raw.append(f"{name}={value}")
            attached.append(f"{name}={value}")
        else:
            raw += [name, value]
            attached.append(f"{name}={value}")
    if draw(st.integers(0, 5)) == 0:  # a trailing option without its value
        name = draw(st.sampled_from(["-c", "--out", "--pow", "--steps", "--state", "--partition"]))
        raw.append(name)
        attached.append(name)
    return raw, attached, values


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_argv())
def test_argv_parser_matches_argparse(generated):
    raw, attached, values = generated
    got = _new_parse(raw)
    # The one deliberate difference: argparse reads a separate value that
    # begins with '-' (other than a negative number) as the next option and
    # fails with "expected one argument"; the table parser always takes the
    # token after an option as its value, as argparse reads '--opt=value'.
    assert got == _oracle_parse(attached)
    if not any(v.startswith("-") for v in values):
        assert got == _oracle_parse(raw)
    if got == "usage error":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(raw)
        assert (rc, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_argv_values_may_begin_with_a_minus():
    assert _new_parse(["evolve", "--state", "-1,0;0,0", "-c", "--out"]) == {
        "command": "evolve", "config": "--out", "out": None, "state": "-1,0;0,0", "steps": None,
    }
    assert _oracle_parse(["evolve", "--state", "-1,0;0,0", "-c", "x"]) == "usage error"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["table", "-h"], ["evolve", "-c", "x", "--help"]])
def test_help_lists_every_command_and_option(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    for command, (_, summary, own) in cli._COMMANDS.items():
        assert f"  {command} " in out and summary in out
        for option in (cli._CONFIG, cli._OUT, *own):
            assert str(option) in out


@pytest.mark.parametrize("argv", [("propagator",), ("evolve", "--state", "1,0;0,0")])
def test_solve_command_builds_a2_once(tmp_path, capsys, monkeypatch, argv):
    builds = []

    def counted():
        builds.append(build_a2())
        return builds[-1]

    for module in (cli, lagrangian):
        monkeypatch.setattr(module, "build_a2", counted)
    rc, _, _ = run(capsys, argv[0], "-c", cfg_file(tmp_path, SOLVE_SQRT2), *argv[1:])
    # a2 is built once, at import: every call the command makes returns that one object
    assert rc == 0 and builds and all(g is build_a2() for g in builds)


@pytest.mark.parametrize("argv, text", [
    (("pathsum", "--check-semigroup", "2+2"), "mu = 0.5\np_plus = 0.3\nsteps = 4\n"),
    (("validate",), "mu = 0.5\np_plus = 0.3\n"),
    (("propagator",), SOLVE_SQRT2),
    (("evolve", "--state", "1,0;0,0"), SOLVE_SQRT2),
])
def test_a2_command_builds_a2_once_and_never_compares_it(tmp_path, capsys, monkeypatch, argv, text):
    builds, compares = [], []
    equal = FiniteGroupoid.__eq__

    def counted():
        builds.append(build_a2())
        return builds[-1]

    def structural(self, other):
        if self is not other:
            compares.append(1)
        return equal(self, other)

    for module in (cli, lagrangian):
        monkeypatch.setattr(module, "build_a2", counted)
    monkeypatch.setattr(FiniteGroupoid, "__eq__", structural)
    rc, out, _ = run(capsys, argv[0], "-c", cfg_file(tmp_path, text), *argv[1:])
    assert rc == 0 and out
    assert builds and all(g is build_a2() for g in builds) and not compares


def test_coarse_grain_index_diff(tmp_path, capsys):
    text = "groupoid = pair:4\npair_lagrangian = index_diff:1.0\n"
    rc, out, err = run(
        capsys,
        "coarse-grain", "-c", cfg_file(tmp_path, text),
        "--partition", "x1,x2|x3,x4",
    )
    assert rc == 0
    head, _, tail = out.partition("\nlagrangian:\n")
    assert head.splitlines()[0].startswith("∘")
    assert "({x3+x4},{x1+x2}) = 0,2" in tail
    assert "({x1+x2},{x3+x4}) = 0,-2" in tail
    assert "({x1+x2},{x1+x2}) = 0,0" in tail


def test_coarse_grain_counts_outcome_pairs_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return pair_index(g)

    monkeypatch.setattr(coarse, "pair_index", counted)
    text = "groupoid = pair:4\npair_lagrangian = index_diff:1.0\n"
    rc, out, err = run(capsys, "coarse-grain", "-c", cfg_file(tmp_path, text), "--partition", "x1,x2|x3,x4")
    assert rc == 0 and len(calls) == 1
    calls.clear()
    z1 = tmp_path / "z1.g"
    z1.write_text("outcomes: o\nelement: e o o\nelement: s o o\nunit: o e\ninverse: e e\ninverse: s s\n"
                  "compose: e e = e\ncompose: e s = s\ncompose: s e = s\ncompose: s s = e\n", encoding="utf-8")
    rc, out, err = run(capsys, "coarse-grain", "-c",
                       cfg_file(tmp_path, f"groupoid = {z1}\npair_lagrangian = constant:1\n", "z.cfg"),
                       "--partition", "o")
    assert rc == 1 and "requires a pair-structured groupoid" in err and len(calls) == 1


def test_coarse_grain_requires_pair_groupoid(tmp_path, capsys):
    # two parallel loops at one outcome: a group, not a pair groupoid
    z2 = tmp_path / "z2.g"
    z2.write_text(
        "outcomes: o\n"
        "element: e o o\n"
        "element: s o o\n"
        "unit: o e\n"
        "inverse: e e\n"
        "inverse: s s\n"
        "compose: e e = e\n"
        "compose: e s = s\n"
        "compose: s e = s\n"
        "compose: s s = e\n",
        encoding="utf-8",
    )
    rc, out, err = run(
        capsys,
        "coarse-grain", "-c", cfg_file(tmp_path, f"groupoid = {z2}\npair_lagrangian = constant:1\n"),
        "--partition", "o",
    )
    assert (rc, out) == (1, "")
    assert err == ("error: coarse graining requires a pair-structured groupoid "
                   "(exactly one transition per ordered outcome pair)\n")
    # without weights, the missing pair_lagrangian reports before the groupoid's shape
    rc, out, err = run(
        capsys,
        "coarse-grain", "-c", cfg_file(tmp_path, f"groupoid = {z2}\n", "z.cfg"),
        "--partition", "o",
    )
    assert (rc, out, err) == (1, "", "error: coarse-grain requires pair_lagrangian\n")

    rc, out, err = run(
        capsys,
        "coarse-grain", "-c", cfg_file(tmp_path, "groupoid = pair:2\n", "p.cfg"),
        "--partition", "x1,x2",
    )
    assert rc == 1
    assert "requires pair_lagrangian" in err


def test_out_file_and_stdout_agree(tmp_path, capsys):
    cfg = cfg_file(tmp_path, "groupoid = a2\n")
    rc, out, err = run(capsys, "table", "-c", cfg)
    dest = tmp_path / "table.txt"
    rc2, out2, err2 = run(capsys, "table", "-c", cfg, "--out", str(dest))
    assert rc == rc2 == 0
    assert out2 == ""
    assert dest.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_an_error_line(tmp_path, capsys, where):
    cfg = cfg_file(tmp_path, "groupoid = a2\n")
    dest = tmp_path / "no" / "t.txt" if where == "missing directory" else tmp_path
    rc, out, err = run(capsys, "table", "-c", cfg, "--out", str(dest))
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot write output {str(dest)!r}: ") and err.count("\n") == 1


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\xe9\ngroupoid = a2\n".encode("latin-1"))
    rc, out, err = run(capsys, "table", "-c", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot read config {str(path)!r}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_usage_errors_exit_1(tmp_path, capsys):
    rc, out, err = run(capsys, "propagator")
    assert rc == 1 and "error:" in err

    rc, out, err = run(capsys, "no-such-command", "-c", "x")
    assert rc == 1

    rc, out, err = run(capsys, "table", "-c", str(tmp_path / "missing.cfg"))
    assert rc == 1
    assert "cannot read config" in err


@pytest.mark.parametrize(
    "text, match",
    [
        ("V_plus = nan", r"line 1, column 10: expected a finite number, got 'nan'"),
        ("mu = 0\ntau = inf", r"line 2, column 7: expected a finite number, got 'inf'"),
        (
            "sweep_parameter = mu_tau_over_hbar\nsweep_from = -inf\n"
            "sweep_to = 1\nsweep_points = 3",
            r"line 2, column 14: expected a finite number, got '-inf'",
        ),
        ("gamma_pm = 1,nan", r"line 1, column 12: expected finite 're,im'"),
    ],
)
def test_parse_config_rejects_non_finite(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_non_finite_solve_input_is_a_parse_error(tmp_path, capsys):
    rc, out, err = run(
        capsys, "propagator", "-c", cfg_file(tmp_path, "gamma_mode = solve\nmu = nan\n")
    )
    assert rc == 1 and out == ""
    assert "line 2, column 6: expected a finite number" in err


@pytest.mark.parametrize(
    "text",
    [
        "gamma_mode = solve\ndelta = 400\n",  # exp(2 delta tau / hbar) overflows
        "delta = 1e300\n",  # the one-step kernel overflows
        "delta = 400\n",  # |U|^2 overflows in the residuals
        "gamma_mode = solve\ngauge = 1e200\n",  # infeasible, but |U|^2 overflows before the verdict
        "gamma_mode = explicit\ngamma_pm = 0,0\n",  # relation 1 undefined
    ],
)
def test_non_finite_results_exit_1(tmp_path, capsys, text):
    rc, out, err = run(capsys, "propagator", "-c", cfg_file(tmp_path, text))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1



_MU_TAU_OVERFLOWS = "p_plus = 0.3\nmu = 1e308\ntau = 10\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        (_MU_TAU_OVERFLOWS, ("propagator",)),
        (_MU_TAU_OVERFLOWS + "gamma_mode = solve\n", ("propagator",)),
        (_MU_TAU_OVERFLOWS, ("pathsum",)),
        (_MU_TAU_OVERFLOWS, ("evolve", "--state", "1,0;0,0")),
        (_MU_TAU_OVERFLOWS + "gamma_mode = solve\n", ("evolve", "--state", "1,0;0,0")),
        ("gamma_mode = solve\nSigma = 1e10\nhbar = 1e-300\n", ("propagator",)),  # Sigma / hbar overflows
        ("mu = 1e308\n", ("propagator",)),  # the phase-constraint gap 2 mu tau / hbar overflows
        ("hbar = 10\nsweep_parameter = mu_tau_over_hbar\nsweep_from = 0\nsweep_to = 1e308\nsweep_points = 3\n",
         ("sweep",)),
    ],
)
def test_an_overflow_is_one_error_kind_in_every_command(tmp_path, capsys, text, argv):
    rc, out, err = run(capsys, argv[0], "-c", cfg_file(tmp_path, text), *argv[1:])
    assert rc == 1 and out == ""
    assert err.startswith("error: arithmetic out of floating-point range (") and err.count("\n") == 1
