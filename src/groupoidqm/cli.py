"""Command-line front end: flat key=value configs, deterministic text/CSV output.

Exit codes: 0 success, 1 validation or parse error, 2 infeasibility of a
required construction.  All floating-point output uses 17 significant digits
so repeated runs are byte-identical.  Config values must be finite, and a
result that is not finite (overflow, or a relation left undefined by a zero
vertex factor) is an exit-1 error, never printed.

Each config key is one row of ``_KEYS``: its RunConfig field, the converter
that parses and range-checks its value, and when some command reads it.  An
unknown, repeated or out-of-range key is an exit-1 error at its line, and so
is a key that no command reads under the config it sits in.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .groupoid import (
    MAX_ELEMENTS,
    FiniteGroupoid,
    OutcomePartition,
    _TABLE_BYTES,
    build_a2,
    build_from_table,
    build_pair_groupoid,
    multiplication_table,
    validate_axioms,
)
from .lagrangian import OutcomeBias, QLagrangian, qubit_bias, qubit_lagrangian
from .algebra import StateVector, element_from_lines
from .coarse import _coarse_grain, pair_index
from .histories import fixed_order_matmul, fixed_order_power, single_step_matrix
from .propagator import (
    PropagatorModel,
    UnitarityReport,
    _step_report,
    evolve_state,
    qubit_propagator,
    quantization_scan,
    solve_unitary_gammas,
)

SWEEP_HEADER = (
    "mu_tau_over_hbar,feasible,min_residual,"
    "gamma_mm_re,gamma_mm_im,gamma_pm_re,gamma_pm_im,"
    "gamma_mp_re,gamma_mp_im,gamma_pp_re,gamma_pp_im"
)
# A sweep holds every point at once.  At this cap its tracemalloc peak is ~23 MB on
# the default model (~39 MB when every printed number takes its full 24 characters):
# the CSV text twice, as blocks of rows and joined, beside the scan's columns (~2.5 MB
# kept).  The scan itself peaks near 14.4 MB, so the text sets the peak.
MAX_SWEEP_POINTS = 100_000


class ConfigError(ValueError):
    """Config file problem, carrying the 1-based position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class InfeasibleModel(RuntimeError):
    """Raised when a command needs unitary vertex factors and none exist."""

    def __init__(self, min_residual: float):
        self.min_residual = min_residual
        super().__init__(
            "no unitary vertex factors satisfy the requested phases; "
            f"pinned candidate residual {min_residual:.17g}"
        )


class _UsageError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class RunConfig:
    """One run's worth of parameters, straight from a flat key=value file."""

    groupoid_spec: str = "a2"
    v_plus: float = 0.0
    v_minus: float = 0.0
    mu: float = 0.0
    delta: float = 0.0
    p_plus: float = 0.5
    tau: float = 1.0
    hbar: float = 1.0
    steps: int = 1
    gamma_mode: str = "unit"
    gamma_mm: complex = 1.0 + 0j
    gamma_mp: complex = 1.0 + 0j
    gamma_pm: complex = 1.0 + 0j
    gamma_pp: complex = 1.0 + 0j
    lam: float = 0.0
    sigma: float = 0.0
    gauge: float = 1.0
    sweep: tuple[str, float, float, int] | None = None
    pair_lagrangian: str | None = None


def _entries(text: str):
    """(key, value, line, column of the value) of each key = value line, in file order, all 1-based.

    Blank and comment lines are skipped; a line without '=', an empty key or a
    repeated key is a ConfigError at the line's first column.
    """
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped[0] == "#":
            continue
        key, sep, value = raw_line.partition("=")
        if not sep:
            raise ConfigError("expected 'key = value'", lineno, 1)
        name = key.strip()
        if not name:
            raise ConfigError("empty key", lineno, 1)
        if name in seen:
            raise ConfigError(f"duplicate key {name!r}", lineno, 1)
        seen.add(name)
        lead = len(value) - len(value.lstrip())
        yield name, value.strip(), lineno, len(key) + 2 + lead


def _as_float(value: str, line: int, column: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"expected a real number, got {value!r}", line, column) from None
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {value!r}", line, column)
    return x


def _as_int(value: str, line: int, column: int) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", line, column) from None


def _as_complex(value: str, line: int, column: int) -> complex:
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 're,im', got {value!r}", line, column)
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"expected 're,im', got {value!r}", line, column) from None
    if not cmath.isfinite(z):
        raise ConfigError(f"expected finite 're,im', got {value!r}", line, column)
    return z


def _checked(key: str, convert, ok, want: str):
    """convert, then a range check naming key: '<key> must be <want>, got <x>'."""
    def checked(value: str, line: int, column: int):
        x = convert(value, line, column)
        if not ok(x):
            raise ConfigError(f"{key} must be {want}, got {x}", line, column)
        return x
    return checked


def _one_of(choices: tuple[str, ...], message: str):
    """Accept one of choices verbatim; otherwise message, formatted with the value's repr."""
    def convert(value: str, line: int, column: int) -> str:
        if value not in choices:
            raise ConfigError(message.format(value), line, column)
        return value
    return convert


def _as_groupoid(value: str, line: int, column: int) -> str:
    size = _pair_size(value, line, column)
    if size is not None and size >= 1 and size * size > MAX_ELEMENTS:  # size < 1 fails at build
        raise ConfigError(f"pair:{size} has {size * size} elements, at most {MAX_ELEMENTS} are allowed", line, column)
    return value


def _as_pair_lagrangian(value: str, line: int, column: int) -> str:
    """'constant:R', 'index_diff:S' with R, S finite, or 'file:PATH'; the file is read when a command runs."""
    kind, sep, arg = value.partition(":")
    if not sep:
        raise ConfigError(f"pair_lagrangian must be kind:value, got {value!r}", line, column)
    if kind not in ("constant", "index_diff", "file"):
        raise ConfigError(f"unknown pair_lagrangian kind {kind!r}", line, column)
    if kind != "file":
        try:
            _finite(arg)
        except ValueError:
            what = "constant weight" if kind == "constant" else "index_diff scale"
            raise ConfigError(f"bad {what} {arg!r}", line, column) from None
    return value


def _as_sweep_points(value: str, line: int, column: int) -> int:
    points = _as_int(value, line, column)
    if not 2 <= points <= MAX_SWEEP_POINTS:
        bound = "at least 2" if points < 2 else f"at most {MAX_SWEEP_POINTS}"
        raise ConfigError(f"sweep_points must be {bound}, got {points}", line, column)
    return points


class _Key(NamedTuple):
    field: str | int  # the RunConfig field, or the key's slot in the sweep tuple
    convert: Callable[[str, int, int], object]  # (value, line, column) -> parsed, range-checked value
    live: Callable[[RunConfig], bool]  # whether some command reads the key under the parsed config


# When some command reads a key, judged on the parsed config (see the cmd_* bodies).
_always = lambda cfg: True
_a2 = lambda cfg: cfg.groupoid_spec == "a2"
_qubit = lambda cfg: cfg.groupoid_spec == "a2" or cfg.sweep is not None  # the a2 step or the sweep's scan
_weighted = lambda cfg: cfg.groupoid_spec == "a2" or cfg.pair_lagrangian is not None  # pathsum has weights
_clocked = lambda cfg: cfg.groupoid_spec == "a2" or cfg.pair_lagrangian is not None or cfg.sweep is not None
_explicit = lambda cfg: cfg.groupoid_spec == "a2" and cfg.gamma_mode == "explicit"
_solved = lambda cfg: cfg.groupoid_spec == "a2" and cfg.gamma_mode == "solve" or cfg.sweep is not None

# One row per config key: parse_config converts, range-checks and tests
# liveness from this table alone.  A key is live when some command reads it
# under the config as a whole, so one config may feed several commands.
_KEYS = {
    "groupoid": _Key("groupoid_spec", _as_groupoid, _always),
    "V_plus": _Key("v_plus", _as_float, _qubit),
    "V_minus": _Key("v_minus", _as_float, _qubit),
    "mu": _Key("mu", _as_float, _a2),  # sweep scans its own grid
    "delta": _Key("delta", _as_float, _qubit),
    "p_plus": _Key("p_plus", _checked("p_plus", _as_float, lambda x: 0.0 <= x <= 0.5, "in [0, 1/2]"), _qubit),
    "tau": _Key("tau", _checked("tau", _as_float, lambda x: x > 0, "positive"), _clocked),
    "hbar": _Key("hbar", _checked("hbar", _as_float, lambda x: x > 0, "positive"), _clocked),
    "steps": _Key("steps", _checked("steps", _as_int, lambda n: n >= 0, "non-negative"), _weighted),
    "gamma_mode": _Key(  # sweep solves whatever the mode
        "gamma_mode", _one_of(("unit", "explicit", "solve"), "gamma_mode must be unit, explicit or solve, got {!r}"), _a2
    ),
    "gamma_mm": _Key("gamma_mm", _as_complex, _explicit),
    "gamma_mp": _Key("gamma_mp", _as_complex, _explicit),
    "gamma_pm": _Key("gamma_pm", _as_complex, _explicit),
    "gamma_pp": _Key("gamma_pp", _as_complex, _explicit),
    "Lambda": _Key("lam", _as_float, _solved),
    "Sigma": _Key("sigma", _as_float, _solved),
    "gauge": _Key("gauge", _as_float, _solved),
    "sweep_parameter": _Key(0, _one_of(("mu_tau_over_hbar",), "unsupported sweep parameter {!r}"), _always),
    "sweep_from": _Key(1, _as_float, _always),
    "sweep_to": _Key(2, _as_float, _always),
    "sweep_points": _Key(3, _as_sweep_points, _always),
    "pair_lagrangian": _Key("pair_lagrangian", _as_pair_lagrangian, lambda cfg: cfg.groupoid_spec != "a2"),
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format in one pass over the lines; positions are reported on errors.

    Each key is converted when its line is reached, so of several faulty
    lines the first is reported.  Then an incomplete sweep block is an error
    at its first key, and a key that no command reads under the parsed
    config an error at its line.
    """
    fields: dict[str | int, object] = {}
    lines: dict[str, int] = {}  # key -> its line, in file order
    for name, value, line, column in _entries(text):
        key = _KEYS.get(name)
        if key is None:
            raise ConfigError(f"unknown key {name!r}", line, 1)
        fields[key.field] = key.convert(value, line, column)
        lines[name] = line

    sweep = [fields.pop(slot) for slot in range(4) if slot in fields]
    if sweep:
        if len(sweep) < 4:
            block = [name for name, key in _KEYS.items() if isinstance(key.field, int)]
            present = [name for name in block if name in lines]
            missing = [name for name in block if name not in lines]
            raise ConfigError(f"sweep block incomplete, missing {', '.join(missing)}", lines[present[0]], 1)
        fields["sweep"] = tuple(sweep)

    cfg = RunConfig(**fields)
    for name, line in lines.items():
        if not _KEYS[name].live(cfg):
            raise ConfigError(f"{name} is read by no command under this config", line, 1)
    return cfg


def _read_text(path: str, what: str) -> str:
    """A UTF-8 file's text; an unreadable or undecodable file is a ConfigError naming it."""
    try:
        with open(path, "rb", buffering=0) as fh:  # bytes: splitlines reads every line ending itself
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None


def load_config(path: str) -> RunConfig:
    return parse_config(_read_text(path, "config"))


def _finite(text: str) -> float:
    """float(text), raising ValueError for nan and infinities too."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _format(template: str, values: list[float]) -> str:
    """template % values, a %.17g in template per float; the first value that is not finite is an error instead.

    Every float a command prints passes through here.
    """
    if not math.isfinite(sum(values)):  # inf and nan survive any sum, so a finite sum proves every value finite
        for x in values:
            if not math.isfinite(x):
                raise ValueError(f"a computed result is not finite ({x})")
    return template % tuple(values)


def _pair_size(spec: str, line: int | None = None, column: int | None = None) -> int | None:
    """N of a 'pair:N' groupoid spec; None for any other spec."""
    if not spec.startswith("pair:"):
        return None
    tail = spec[len("pair:"):]
    try:
        return int(tail, 10)
    except ValueError:
        raise ConfigError(f"bad pair groupoid size {tail!r}", line, column) from None


def _build_groupoid(cfg: RunConfig) -> FiniteGroupoid:
    spec = cfg.groupoid_spec
    if spec == "a2":
        return build_a2()
    n = _pair_size(spec)
    if n is not None:
        return build_pair_groupoid(n)
    return build_from_table(_read_text(spec, "groupoid file"))


def _build_lagrangian(cfg: RunConfig, g: FiniteGroupoid) -> QLagrangian | None:
    """Weights for the configured groupoid; None when nothing is specified.

    parse_config has checked a pair_lagrangian spec's kind and number; a weight
    file is read here.
    """
    if cfg.groupoid_spec == "a2":  # qubit_lagrangian's groupoid is the a2 that _build_groupoid returned
        return qubit_lagrangian(cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta)
    if cfg.pair_lagrangian is None:
        return None
    kind, _, arg = cfg.pair_lagrangian.partition(":")
    if kind == "constant":
        return QLagrangian(g, np.full(len(g.elements), complex(float(arg), 0.0)))
    if kind == "index_diff":
        return QLagrangian(g, _index_diff_weights(g, float(arg)))
    text = _read_text(arg, "weight file")
    try:
        a = element_from_lines(g, text)
    except ValueError as exc:
        raise ConfigError(f"bad weight file {arg!r}: {exc}") from None
    return QLagrangian(g, {e: a[e] for e in g.elements})


def _index_diff_weights(g: FiniteGroupoid, s: float) -> np.ndarray:
    """1j * s * (i_target - i_source) per element, with the bits of that Python expression.

    ``1j * s`` is a Python complex c; times the integer d, CPython (through
    3.13) forms (c.real*d - c.imag*0.0, c.real*0.0 + c.imag*d), signed zeros
    included.  A weight that overflows is an OverflowError naming its element:
    the weights are anti-symmetric by construction, so the fault is the scale,
    not self-adjointness.
    """
    c = 1j * s
    d = (g.target.array - g.source.array).astype(float)
    w = np.empty(len(d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        w.real = c.real * d - c.imag * 0.0
        w.imag = c.real * 0.0 + c.imag * d
    finite = np.isfinite(w)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"index_diff weight {complex(w[i])} of {g.elements[i]} is not finite")
    return w


def _build_bias(cfg: RunConfig, g: FiniteGroupoid) -> OutcomeBias:
    if cfg.groupoid_spec == "a2":
        return qubit_bias(cfg.p_plus)
    return OutcomeBias.uniform(g)


def _require_a2(cfg: RunConfig, command: str) -> FiniteGroupoid:
    """a2 itself: the qubit step matrix is fixed to its (-, +) outcome order,
    so a groupoid file is rejected even when it describes a2."""
    if cfg.groupoid_spec != "a2":
        raise ConfigError(f"{command} command requires a2")
    return build_a2()


def _step_from_config(cfg: RunConfig) -> tuple[PropagatorModel, np.ndarray, UnitarityReport | None]:
    """The step's model and matrix; in solve mode also the solver's unitarity report."""
    if cfg.gamma_mode == "solve":
        solution = solve_unitary_gammas(
            cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta, cfg.p_plus, cfg.tau, cfg.hbar,
            lam=cfg.lam, sigma=cfg.sigma, gauge=cfg.gauge,
        )
        if not solution.feasible:
            raise InfeasibleModel(solution.min_residual)
        return solution.model, solution.u, solution.report
    gammas = (cfg.gamma_mm, cfg.gamma_mp, cfg.gamma_pm, cfg.gamma_pp) if cfg.gamma_mode == "explicit" else ()
    model = PropagatorModel(cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta, cfg.p_plus, cfg.tau, cfg.hbar, *gammas)
    return model, qubit_propagator(model), None


def _matrix_text(entry: str, m: np.ndarray, outcomes: tuple[str, ...]) -> str:
    """One line per entry of m, row by row: entry.format(b=row outcome, a=column outcome), one %.17g,%.17g in it."""
    names = [o.replace("%", "%%") for o in outcomes]  # a label is literal text in the template
    template = "".join(entry.format(b=b, a=a) for b in names for a in names)
    return _format(template, [x for row in m.tolist() for z in row for x in (z.real, z.imag)])


# cmd_propagator's lines after U: one %.17g per printed float
_GAMMAS = "".join(f"{name} = %.17g,%.17g\n" for name in ("gamma_mm", "gamma_mp", "gamma_pm", "gamma_pp"))
_REPORT = "".join(
    [f"residual_{block}_{entry} = %.17g\n" for block in (1, 2) for entry in (1, 2, 3, 4)]
    + [f"{name} = %.17g\n" for name in (
        "max_residual", "relation1_gap", "relation2_gap", "global_phase_gap", "frobenius_left", "frobenius_right"
    )]
)


def _text(lines: list[str]) -> str:
    """A command's output: each line newline-terminated."""
    return "\n".join(lines) + "\n"


def cmd_validate(cfg: RunConfig) -> tuple[int, str]:
    g = _build_groupoid(cfg)
    report = validate_axioms(g)
    lines = [f"outcomes = {len(g.outcomes)}", f"elements = {len(g.elements)}"]
    ok = report.ok
    if report.ok:
        lines.append("axioms = ok")
    else:
        lines.append(f"axioms = {len(report.failures)} violations")
        for failure in report.failures:
            lines.append(str(failure))
    try:
        ell = _build_lagrangian(cfg, g)
    except ConfigError:
        raise
    except ValueError as exc:  # QLagrangian's self-adjointness check
        lines.append(f"lagrangian = violation: {exc}")
        ok = False
    else:
        lines.append("lagrangian = none" if ell is None else "lagrangian = self-adjoint")
    return (0 if ok else 1), _text(lines)


def cmd_table(cfg: RunConfig) -> tuple[int, str]:
    g = _build_groupoid(cfg)
    return 0, multiplication_table(g)


def cmd_propagator(cfg: RunConfig, power: int | None) -> tuple[int, str]:
    g = _require_a2(cfg, "propagator")
    if power is not None and power < 0:
        raise ConfigError(f"--power must be non-negative, got {power}")
    model, u, report = _step_from_config(cfg)
    if report is None:  # the step matrix is already built: take its residuals, do not rebuild it
        report = _step_report(model, u)
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


def cmd_pathsum(cfg: RunConfig, steps: int | None, check_semigroup: str | None) -> tuple[int, str]:
    g = _build_groupoid(cfg)
    ell = _build_lagrangian(cfg, g)
    if ell is None:
        raise ConfigError("pathsum on a non-qubit groupoid requires pair_lagrangian")
    bias = _build_bias(cfg, g)
    n = cfg.steps if steps is None else steps
    if n < 1:
        raise ConfigError(f"pathsum requires steps >= 1, got {n}")
    k = single_step_matrix(g, ell, bias, cfg.tau, cfg.hbar)  # n_step_path_sum's K, built once for every power
    m = fixed_order_power(k, n)
    text = "row,col,re,im\n" + _matrix_text("{b},{a},%.17g,%.17g\n", m, g.outcomes)
    if check_semigroup is not None:
        left, sep, right = check_semigroup.partition("+")
        try:
            n1, n2 = int(left, 10), int(right, 10)
        except ValueError:
            sep = ""
        if not sep or n1 < 1 or n2 < 1:
            raise ConfigError(f"--check-semigroup expects 'N1+N2', got {check_semigroup!r}")
        if n1 + n2 != n:
            raise ConfigError(f"--check-semigroup {n1}+{n2} does not add up to steps = {n}")
        m1 = fixed_order_power(k, n1)
        m2 = m1 if n2 == n1 else fixed_order_power(k, n2)
        gap = m - fixed_order_matmul(m2, m1)
        deviation = float(np.hypot(gap.real, gap.imag).max())
        text += _format("semigroup_deviation = %.17g\n", [deviation])
    return 0, text


def cmd_sweep(cfg: RunConfig) -> tuple[int, str]:
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep block in the config")
    _, start, stop, count = cfg.sweep
    if not math.isfinite(stop - start):  # linspace's step would be inf, and its first point nan
        raise OverflowError(f"sweep_to - sweep_from = {stop - start} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # quantization_scan names a grid point that is not finite
        grid = np.linspace(start, stop, count)
    scan = quantization_scan(
        cfg.v_plus, cfg.v_minus, cfg.delta, cfg.p_plus, cfg.tau, cfg.hbar,
        cfg.lam, cfg.sigma, cfg.gauge, grid,
    )
    m = scan.model  # the vertex factors do not depend on mu
    gammas = [x for z in (m.gamma_mm, m.gamma_pm, m.gamma_mp, m.gamma_pp) for x in (z.real, z.imag)]
    tail = _format(",%.17g" * 8, gammas) + "\n"  # the same gamma columns end every row
    rows = ("%.17g,0,%.17g\n", "%.17g,1,%.17g\n")  # by the feasible flag
    # One % per block of rows, then one replace of its newlines by the tail: % reads its
    # template a character at a time, so the tail stays out of it.  Each block's final
    # text is at most _TABLE_BYTES: a %.17g is at most 24 characters.
    widest = len(rows[0] % (-sys.float_info.min, -sys.float_info.min)) - 1 + len(tail)
    step = max(1, _TABLE_BYTES // widest)
    columns = np.column_stack((scan.mu_tau_over_hbar, scan.min_residual))
    blocks = [SWEEP_HEADER + "\n"]
    for lo in range(0, count, step):
        template = "".join([rows[flag] for flag in scan.feasible_mask[lo : lo + step].tolist()])
        blocks.append(_format(template, columns[lo : lo + step].ravel().tolist()).replace("\n", tail))
    return 0, "".join(blocks)


def _parse_state(spec: str, size: int) -> StateVector:
    parts = spec.split(";")
    if len(parts) != size:
        raise ConfigError(f"state needs {size} components 're,im;...', got {spec!r}")
    comps = []
    for part in parts:
        halves = part.split(",")
        if len(halves) != 2:
            raise ConfigError(f"bad state component {part!r}, expected 're,im'")
        try:
            comps.append(complex(_finite(halves[0]), _finite(halves[1])))
        except ValueError:
            raise ConfigError(f"bad state component {part!r}, expected 're,im'") from None
    return StateVector(tuple(comps))


def cmd_evolve(cfg: RunConfig, state_spec: str, steps: int | None) -> tuple[int, str]:
    g = _require_a2(cfg, "evolve")
    state = _parse_state(state_spec, len(g.outcomes))
    if state.norm() == 0.0:
        raise ConfigError("state must have nonzero norm")
    n = cfg.steps if steps is None else steps
    if n < 0:
        raise ConfigError(f"steps must be non-negative, got {n}")
    _, u, _ = _step_from_config(cfg)
    final = evolve_state(u, state, n)
    template = "".join(f"psi[{o}] = %.17g,%.17g\n" for o in g.outcomes) + "norm = %.17g\n"
    return 0, _format(template, [x for z in final.amplitudes for x in (z.real, z.imag)] + [final.norm()])


def cmd_coarse_grain(cfg: RunConfig, partition_spec: str) -> tuple[int, str]:
    g = _build_groupoid(cfg)
    at = pair_index(g)  # derived once: the check here, the weights' gather in _coarse_grain
    if at is None:
        raise ConfigError("coarse-grain command requires a pair groupoid")
    ell = _build_lagrangian(cfg, g)
    if ell is None:
        raise ConfigError("coarse-grain requires pair_lagrangian")
    blocks = tuple(
        tuple(member.strip() for member in block.split(","))
        for block in partition_spec.split("|")
    )
    partition = OutcomePartition(blocks)
    quotient, ell2 = _coarse_grain(g, at, partition, ell)
    names = [e.replace("%", "%%") for e in quotient.elements]  # a label is literal text in the template
    template = "\nlagrangian:\n" + "".join(f"{e} = %.17g,%.17g\n" for e in names)
    values = [x for z in ell2.weights_on(quotient).tolist() for x in (z.real, z.imag)]
    return 0, multiplication_table(quotient) + _format(template, values)


class _Option(NamedTuple):
    short: str  # '' when the option has no short spelling
    long: str
    dest: str | None
    convert: type
    required: bool
    metavar: str

    def __str__(self) -> str:
        return f"{self.short}/{self.long}" if self.short else self.long


# Every command takes -c/--config and --out; a command's runner gets the values
# of its own options in table order.  This one table drives parsing, usage
# errors and --help.
_HELP = _Option("-h", "--help", None, str, False, "")
_CONFIG = _Option("-c", "--config", "config", str, True, "FILE")
_OUT = _Option("", "--out", "out", str, False, "FILE")
_STEPS = _Option("", "--steps", "steps", int, False, "N")
_COMMANDS = {
    "validate": (cmd_validate, "check groupoid axioms and weight self-adjointness", ()),
    "table": (cmd_table, "print the multiplication table", ()),
    "propagator": (cmd_propagator, "print the one-step matrix and unitarity report",
                   (_Option("", "--power", "power", int, False, "N"),)),
    "pathsum": (cmd_pathsum, "sum over histories as an outcome-indexed CSV",
                (_STEPS, _Option("", "--check-semigroup", "check_semigroup", str, False, "N1+N2"))),
    "sweep": (cmd_sweep, "unitarity feasibility scan as CSV", ()),
    "evolve": (cmd_evolve, "apply N propagation steps to a state",
               (_Option("", "--state", "state", str, True, "'re,im;re,im'"), _STEPS)),
    "coarse-grain": (cmd_coarse_grain, "quotient a pair groupoid by an outcome partition",
                     (_Option("", "--partition", "partition", str, True, "'x1,x2|x3,x4'"),)),
}


def _parse_argv(argv: list[str]) -> tuple[str, dict[str, object]] | None:
    """The command and its options' values (None when absent), or None for -h/--help.

    Accepts '--opt value', '--opt=value', '-c FILE', '-cFILE' and a unique prefix
    of a long option; the last of a repeated option wins.  The token after an
    option is always its value, so a value may begin with '-'.
    """
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        if command == "-h" or len(command) > 2 and "--help".startswith(command):
            return None
        raise _UsageError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    options = (_HELP, _CONFIG, _OUT, *_COMMANDS[command][2])
    values = {option.dest: None for option in options[1:]}
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token.startswith("--"):
            name, eq, value = token.partition("=")
            hits = [o for o in options if o.long == name] or [o for o in options if o.long.startswith(name)]
            if len(hits) != 1:
                if hits:
                    raise _UsageError(f"ambiguous option: {name} could match {', '.join(o.long for o in hits)}")
                raise _UsageError(f"unrecognized arguments: {token}")
            option, value = hits[0], value if eq else None
        else:
            option = next((o for o in options if o.short and token[:2] == o.short), None)
            if option is None:
                raise _UsageError(f"unrecognized arguments: {token}")
            value = token[2:].removeprefix("=") if len(token) > 2 else None  # '-c=FILE' is '-c FILE'
        if option is _HELP:
            return None
        if value is None:
            if i == len(argv):
                raise _UsageError(f"argument {option}: expected one argument")
            value, i = argv[i], i + 1
        try:
            values[option.dest] = option.convert(value)
        except ValueError:
            raise _UsageError(f"argument {option}: invalid {option.convert.__name__} value: {value!r}") from None
    missing = [str(o) for o in options if o.required and values[o.dest] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return command, values


def _usage() -> str:
    lines = ["usage: groupoidqm COMMAND -c/--config FILE [--out FILE] [options]", "", "commands:"]
    for command, (_, summary, own) in _COMMANDS.items():
        spelled = [f"{o} {o.metavar}" if o.required else f"[{o} {o.metavar}]" for o in (_CONFIG, _OUT, *own)]
        lines += [f"  {command} {' '.join(spelled)}", f"      {summary}"]
    return _text(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if parsed is None:
        sys.stdout.write(_usage())
        return 0
    command, options = parsed
    run, _, own = _COMMANDS[command]
    try:
        cfg = load_config(options["config"])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rc, text = run(cfg, *[options[o.dest] for o in own])
    except InfeasibleModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, GroupoidParseError and bad values alike
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: arithmetic out of floating-point range ({exc})", file=sys.stderr)
        return 1
    out = options["out"]
    if out is None:
        sys.stdout.write(text)
        return rc
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output {out!r}: {exc}", file=sys.stderr)
        return 1
    return rc


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
