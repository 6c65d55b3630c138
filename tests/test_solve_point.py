"""The single-point commands, byte for byte, against a frozen copy of their former path.

``propagator`` and ``evolve`` solve a point through ``propagator._solve_point``
and format straight from its floats.  ``_oracle_propagator`` and
``_oracle_evolve`` are those commands as they were before the scalar core: the
former ``solve_unitary_gammas`` (a ``PropagatorModel``, its step matrix and its
``UnitarityReport`` on numpy arrays), then ``fixed_order_power`` and the
former ``evolve_state``.  The solve and the evolution are written out here; the
rest runs on helpers the core did not change (``histories``' ``_exp``,
``_amplitude``, ``_complex``, ``_not_finite``, ``fixed_order_matmul`` and
``fixed_order_power``, ``propagator._unitarity_gaps``, ``cli._format``,
``_matrix_text``, ``_parse_state`` and ``_require_a2``).  A derandomized
hypothesis test runs each drawn command through ``cli.main`` twice, once with
the oracle in the command table, and compares (rc, stdout, stderr).
"""

import contextlib
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm import cli
from groupoidqm.cli import (
    _GAMMAS, _REPORT, ConfigError, InfeasibleModel, _format, _matrix_text, _parse_state, _require_a2, main,
)
from groupoidqm.algebra import StateVector
from groupoidqm.histories import _amplitude, _complex, _exp, _not_finite, fixed_order_matmul, fixed_order_power
from groupoidqm.propagator import FEASIBLE_TOL, TWO_PI, PropagatorModel, UnitarityReport, _unitarity_gaps


def _oracle_growth(delta, tau, hbar):
    x = 2.0 * delta * tau / hbar
    try:
        return math.exp(x)
    except OverflowError:
        raise OverflowError(f"exp of exponent {x} overflows") from None


def _oracle_step(m: PropagatorModel) -> np.ndarray:
    """The former _kernel and qubit_propagator."""
    bias, tau, hbar = (m.p_minus, m.p_plus), m.tau, m.hbar
    k_pp = 0j + _amplitude(bias, 1, 1, complex(-m.v_plus, 0.0) * tau, hbar)
    k_mm = 0j + _amplitude(bias, 0, 0, complex(-m.v_minus, 0.0) * tau, hbar)
    root = math.sqrt(m.p_plus * m.p_minus)
    k_mp = 0j + root * _exp(1j * (complex(m.mu, m.delta) * tau) / hbar)
    k_pm = 0j + root * _exp(1j * (complex(m.mu, -m.delta) * tau) / hbar)
    (re_mm, im_mm), (re_mp, im_mp), (re_pm, im_pm), (re_pp, im_pp) = [
        (g.real * k.real - g.imag * k.imag, g.real * k.imag + g.imag * k.real)
        for g, k in zip(m.gammas, (k_mm, k_mp, k_pm, k_pp))
    ]
    u = _complex([[re_mm, re_mp], [re_pm, re_pp]], [[im_mm, im_mp], [im_pm, im_pp]])
    if not all(map(math.isfinite, (re_mm, re_mp, re_pm, re_pp, im_mm, im_mp, im_pm, im_pp))):
        raise _not_finite("step matrix entry", u)
    return u


def _oracle_report(model: PropagatorModel, u: np.ndarray) -> UnitarityReport:
    """The former _residuals and _step_report."""
    re, im = u.real.tolist(), u.imag.tolist()
    a, d, x, y, b, e, v, w = _unitarity_gaps(re, im)
    gap_re, gap_im = [a, x, x, d, b, v, v, e], [0.0, y, -y, 0.0, 0.0, w, -w, 0.0]
    if not all(map(math.isfinite, gap_re + gap_im)):
        (r00, r01), (r10, r11) = re
        (i00, i01), (i10, i11) = im
        gap_im[0] = (r00 * -i00 + i00 * r00) + (r01 * -i01 + i01 * r01)
        gap_im[3] = (r10 * -i10 + i10 * r10) + (r11 * -i11 + i11 * r11)
        gap_im[4] = (r00 * i00 + -i00 * r00) + (r10 * i10 + -i10 * r10)
        gap_im[7] = (r01 * i01 + -i01 * r01) + (r11 * i11 + -i11 * r11)
        raise _not_finite("unitarity gap", _complex(gap_re, gap_im))
    r = tuple(np.hypot(gap_re, gap_im).tolist())
    growth = _oracle_growth(model.delta, model.tau, model.hbar)
    pm = abs(model.gamma_pm)
    relation1_gap = abs(abs(model.gamma_mp) / pm - growth) if pm else math.inf
    relation2_gap = abs(abs(model.gamma_mm) * model.p_minus - abs(model.gamma_pp) * model.p_plus)
    v_bar = 0.5 * (model.v_plus + model.v_minus)
    theta = (model.mu + v_bar) * 2.0 * model.tau / model.hbar - ((model.sigma + model.lam) / model.hbar + math.pi)
    if not math.isfinite(theta):
        raise OverflowError(f"phase constraint gap {theta} is not finite")
    return UnitarityReport(
        r, max(r), relation1_gap, relation2_gap, abs(math.remainder(theta, TWO_PI)),
        math.hypot(*r[:4]), math.hypot(*r[4:]),
    )


def _oracle_step_from_config(cfg):
    """The former _step_from_config, its solve (_check_solve_args, _pinned_model) written out."""
    if cfg.gamma_mode != "solve":
        gammas = (cfg.gamma_mm, cfg.gamma_mp, cfg.gamma_pm, cfg.gamma_pp) if cfg.gamma_mode == "explicit" else ()
        model = PropagatorModel(cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta, cfg.p_plus, cfg.tau, cfg.hbar, *gammas)
        return model, _oracle_step(model), None
    p_plus, tau, hbar, gauge, lam, sigma = cfg.p_plus, cfg.tau, cfg.hbar, cfg.gauge, cfg.lam, cfg.sigma
    if not 0.0 < p_plus <= 0.5:
        raise ValueError(f"solving requires p_plus in (0, 1/2], got {p_plus}")
    if not gauge > 0:
        raise ValueError(f"gauge must be positive, got {gauge}")
    if not (tau > 0 and hbar > 0):
        raise ValueError("tau and hbar must be positive")
    p_minus = 1.0 - p_plus
    growth = _oracle_growth(cfg.delta, tau, hbar)
    s = 1.0 - gauge * gauge * p_plus * p_minus * growth
    g_pp = math.sqrt(max(s, 0.0)) / p_plus
    model = PropagatorModel(
        cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta, p_plus, tau, hbar,
        gamma_mm=g_pp * (p_plus / p_minus) * _exp(1j * sigma / hbar),
        gamma_mp=gauge * growth * _exp(-1j * lam / hbar),
        gamma_pm=complex(gauge, 0.0),
        gamma_pp=complex(g_pp, 0.0),
        lam=lam, sigma=sigma,
    )
    u = _oracle_step(model)
    report = _oracle_report(model, u)
    if not (s >= 0.0 and all(r <= FEASIBLE_TOL for r in report.residuals)):
        raise InfeasibleModel(report.max_residual)
    return model, u, report


def _oracle_propagator(cfg, power):
    g = _require_a2(cfg, "propagator")
    if power is not None and power < 0:
        raise ConfigError(f"--power must be non-negative, got {power}")
    model, u, report = _oracle_step_from_config(cfg)
    if report is None:
        report = _oracle_report(model, u)
    text = _matrix_text("U[{b}][{a}] = %.17g,%.17g\n", u, g.outcomes)
    if cfg.gamma_mode == "solve":
        text += _format(_GAMMAS, [x for z in model.gammas for x in (z.real, z.imag)])
    text += _format(_REPORT, [
        *report.residuals, report.max_residual, report.relation1_gap, report.relation2_gap,
        report.global_phase_gap, report.frobenius_left, report.frobenius_right,
    ])
    if power is not None:
        text += _matrix_text(f"U^{power}[{{b}}][{{a}}] = %.17g,%.17g\n", fixed_order_power(u, power), g.outcomes)
    return 0, text


def _oracle_evolve(cfg, state_spec, steps):
    g = _require_a2(cfg, "evolve")
    state = _parse_state(state_spec, len(g.outcomes))
    if state.norm() == 0.0:
        raise ConfigError("state must have nonzero norm")
    n = cfg.steps if steps is None else steps
    if n < 0:
        raise ConfigError(f"steps must be non-negative, got {n}")
    _, u, _ = _oracle_step_from_config(cfg)
    moved = fixed_order_matmul(fixed_order_power(u, n), state.as_array()[:, None])  # the former evolve_state
    final = StateVector(tuple(moved[:, 0].tolist()))
    template = "".join(f"psi[{o}] = %.17g,%.17g\n" for o in g.outcomes) + "norm = %.17g\n"
    return 0, _format(template, [x for z in final.amplitudes for x in (z.real, z.imag)] + [final.norm()])


_ORACLE = {
    "propagator": (_oracle_propagator, *cli._COMMANDS["propagator"][1:]),
    "evolve": (_oracle_evolve, *cli._COMMANDS["evolve"][1:]),
}


def _level(p: dict) -> float:
    """The mu of the phase level nearest zero: theta(mu) = 0 exactly, up to rounding."""
    v_bar = 0.5 * (p["V_plus"] + p["V_minus"])
    return ((p["Sigma"] + p["Lambda"]) / p["hbar"] + math.pi) * p["hbar"] / (2.0 * p["tau"]) - v_bar


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


_BIG = st.sampled_from([1e155, 1e200, 1e300])  # gauge whose square, or whose product with a flip, overflows


@st.composite
def _command(draw):
    """(argv after the config, config text): a single-point command, mostly in solve mode.

    The parameters take the benchmark's ranges, the radicand clearly positive
    or negative, or one of the edges: a radicand of exactly 0 or one step
    either side of it (p+ = 1/2, delta = 0, gauge = 2), a delta or gauge
    whose growth factor, radicand or step overflows, mu on a phase level,
    within the feasibility tolerance of it, or off it, and a state whose
    product with the step overflows.
    """
    p = {
        "V_plus": draw(_unit(-1.0, 1.0)), "V_minus": draw(_unit(-1.0, 1.0)),
        "delta": draw(_unit(-0.3, 0.3)), "p_plus": draw(_unit(0.15, 0.5)),
        "tau": draw(_unit(0.5, 1.5)), "hbar": draw(_unit(0.7, 1.5)),
        "Lambda": draw(_unit(-math.pi, math.pi)), "Sigma": draw(_unit(-math.pi, math.pi)),
    }
    radicand = draw(st.sampled_from(["positive", "negative", "zero", "overflow"]))
    if radicand == "zero":
        gauge = draw(st.sampled_from([2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0)]))
        p.update(p_plus=0.5, delta=0.0, gauge=gauge)  # s = 1 - 4 (1/4) exp(0) = 0, or one step either side
    elif radicand == "overflow":
        if draw(st.booleans()):
            p["delta"] = draw(st.sampled_from([360.0, -360.0, 400.0, -400.0, 1e300]))
        p["gauge"] = draw(st.one_of(_BIG, _unit(0.5, 2.0)))
    else:
        s = draw(_unit(0.1, 0.9) if radicand == "positive" else _unit(-2.0, -0.1))
        spread = p["p_plus"] * (1.0 - p["p_plus"]) * math.exp(2.0 * p["delta"] * p["tau"] / p["hbar"])
        p["gauge"] = math.sqrt((1.0 - s) / spread)
    offset = draw(st.sampled_from([0.0, 0.0, 0.0, "tight", "off"]))
    if offset == "tight":  # within FEASIBLE_TOL of the level: U's norm grows by about that much a step
        offset = draw(_unit(-1e-10, 1e-10))
    elif offset == "off":
        offset = draw(_unit(0.2, math.pi / 2 - 0.2)) * draw(st.sampled_from([-1.0, 1.0]))
    p["mu"] = (_level(p) + draw(st.integers(-1, 1)) * math.pi * p["hbar"] / p["tau"]) + offset
    mode = draw(st.sampled_from(["solve"] * 6 + ["unit", "explicit"]))
    if mode != "solve":  # Lambda, Sigma and gauge are read in solve mode only
        del p["Lambda"], p["Sigma"], p["gauge"]
    if mode == "explicit":
        for name in ("gamma_mm", "gamma_mp", "gamma_pm", "gamma_pp"):
            p[name] = f"{draw(_unit(-2.0, 2.0))!r},{draw(_unit(-2.0, 2.0))!r}"
    text = f"gamma_mode = {mode}\n" + "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                                               for k, v in p.items())
    n = draw(st.one_of(st.integers(0, 20), st.sampled_from([0, 10**12, 10**15, 10**18, 10**22, -1])))
    if draw(st.booleans()):
        return ["propagator", *(() if draw(st.integers(0, 3)) == 0 else ("--power", str(n)))], text
    components = [f"{draw(_unit(-1.0, 1.0))!r},{draw(_unit(-1.0, 1.0))!r}" for _ in range(2)]
    huge = "1.7e308,0;1.7e308,1e-300"  # its product with a step of entries near 1 can overflow
    state = draw(st.sampled_from([";".join(components)] * 6 + ["-0.6,0.1;-0.3,0.7", "0,0;0,0", huge]))
    steps = () if draw(st.integers(0, 4)) == 0 else ("--steps", str(n))  # then the config's steps = 1
    return ["evolve", f"--state={state}", *steps], text


def _main(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([argv[0], "-c", path, *argv[1:]])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_command())
def test_single_point_commands_match_the_former_path_byte_for_byte(command):
    argv, text = command
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "point.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = _main(argv, path)
        with mock.patch.dict(cli._COMMANDS, _ORACLE):
            want = _main(argv, path)
    assert got == want, (argv, text)
    assert "Traceback" not in got[2]
