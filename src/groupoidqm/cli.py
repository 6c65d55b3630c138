"""Command-line front end: flat key=value configs, deterministic text/CSV output.

Exit codes: 0 success, 1 validation or parse error, 2 infeasibility of a
required construction.  All floating-point output uses 17 significant digits
so repeated runs are byte-identical.  Config values must be finite, and a
result that is not finite (overflow, or a relation left undefined by a zero
vertex factor) is an exit-1 error, never printed.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .groupoid import (
    MAX_ELEMENTS,
    FiniteGroupoid,
    GroupoidParseError,
    OutcomePartition,
    build_a2,
    build_from_table,
    build_pair_groupoid,
    multiplication_table,
    validate_axioms,
)
from .lagrangian import OutcomeBias, QLagrangian, _qubit_weights, qubit_bias
from .algebra import StateVector, element_from_lines
from .coarse import coarse_grain, is_principal
from .histories import fixed_order_matmul, n_step_path_sum
from .propagator import (
    PropagatorModel,
    UnitarityReport,
    _step_report,
    evolve_state,
    power_propagator,
    qubit_propagator,
    quantization_scan,
    solve_unitary_gammas,
)

SWEEP_HEADER = (
    "mu_tau_over_hbar,feasible,min_residual,"
    "gamma_mm_re,gamma_mm_im,gamma_pm_re,gamma_pm_im,"
    "gamma_mp_re,gamma_mp_im,gamma_pp_re,gamma_pp_im"
)
# A sweep holds every point at once, ~0.45 kB each at its tracemalloc peak
# (scan arrays, per-point complex amplitudes, CSV text), so this caps it near 45 MB.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class _Raw:
    value: str
    line: int
    column: int


@dataclass(frozen=True)
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


def _parse_entries(text: str) -> dict[str, _Raw]:
    entries: dict[str, _Raw] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = raw_line.partition("=")
        if not sep:
            raise ConfigError("expected 'key = value'", lineno, 1)
        name = key.strip()
        if not name:
            raise ConfigError("empty key", lineno, 1)
        if name in entries:
            raise ConfigError(f"duplicate key {name!r}", lineno, 1)
        lead = len(value) - len(value.lstrip())
        column = len(key) + 2 + lead
        entries[name] = _Raw(value.strip(), lineno, column)
    return entries


def _as_float(raw: _Raw) -> float:
    try:
        x = float(raw.value)
    except ValueError:
        raise ConfigError(f"expected a real number, got {raw.value!r}", raw.line, raw.column) from None
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {raw.value!r}", raw.line, raw.column)
    return x


def _as_int(raw: _Raw) -> int:
    try:
        return int(raw.value, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw.value!r}", raw.line, raw.column) from None


def _as_complex(raw: _Raw) -> complex:
    parts = raw.value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 're,im', got {raw.value!r}", raw.line, raw.column)
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"expected 're,im', got {raw.value!r}", raw.line, raw.column) from None
    if not cmath.isfinite(z):
        raise ConfigError(f"expected finite 're,im', got {raw.value!r}", raw.line, raw.column)
    return z


_FLOAT_KEYS = {
    "V_plus": "v_plus",
    "V_minus": "v_minus",
    "mu": "mu",
    "delta": "delta",
    "p_plus": "p_plus",
    "tau": "tau",
    "hbar": "hbar",
    "Lambda": "lam",
    "Sigma": "sigma",
    "gauge": "gauge",
}
_COMPLEX_KEYS = {"gamma_mm", "gamma_mp", "gamma_pm", "gamma_pp"}
_SWEEP_KEYS = ("sweep_parameter", "sweep_from", "sweep_to", "sweep_points")
_ALL_KEYS = (
    {"groupoid", "steps", "gamma_mode", "pair_lagrangian"}
    | set(_FLOAT_KEYS)
    | _COMPLEX_KEYS
    | set(_SWEEP_KEYS)
)


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format; positions are reported on errors."""
    entries = _parse_entries(text)
    for name, raw in entries.items():
        if name not in _ALL_KEYS:
            raise ConfigError(f"unknown key {name!r}", raw.line, 1)

    fields: dict[str, object] = {}
    if "groupoid" in entries:
        raw = entries["groupoid"]
        fields["groupoid_spec"] = raw.value
        size = _pair_size(raw.value, raw.line, raw.column)
        if size is not None and size >= 1 and size * size > MAX_ELEMENTS:  # size < 1 fails at build
            raise ConfigError(
                f"pair:{size} has {size * size} elements, at most {MAX_ELEMENTS} are allowed",
                raw.line,
                raw.column,
            )
    for key, attr in _FLOAT_KEYS.items():
        if key in entries:
            fields[attr] = _as_float(entries[key])
    for key in _COMPLEX_KEYS:
        if key in entries:
            fields[key] = _as_complex(entries[key])
    if "steps" in entries:
        raw = entries["steps"]
        n = _as_int(raw)
        if n < 0:
            raise ConfigError(f"steps must be non-negative, got {n}", raw.line, raw.column)
        fields["steps"] = n
    if "gamma_mode" in entries:
        raw = entries["gamma_mode"]
        if raw.value not in ("unit", "explicit", "solve"):
            raise ConfigError(
                f"gamma_mode must be unit, explicit or solve, got {raw.value!r}",
                raw.line,
                raw.column,
            )
        fields["gamma_mode"] = raw.value
    if "pair_lagrangian" in entries:
        fields["pair_lagrangian"] = entries["pair_lagrangian"].value

    present = [k for k in _SWEEP_KEYS if k in entries]
    if present:
        missing = [k for k in _SWEEP_KEYS if k not in entries]
        if missing:
            raw = entries[present[0]]
            raise ConfigError(
                f"sweep block incomplete, missing {', '.join(missing)}", raw.line, 1
            )
        raw = entries["sweep_parameter"]
        if raw.value != "mu_tau_over_hbar":
            raise ConfigError(
                f"unsupported sweep parameter {raw.value!r}", raw.line, raw.column
            )
        points_raw = entries["sweep_points"]
        points = _as_int(points_raw)
        if not 2 <= points <= MAX_SWEEP_POINTS:
            bound = "at least 2" if points < 2 else f"at most {MAX_SWEEP_POINTS}"
            raise ConfigError(
                f"sweep_points must be {bound}, got {points}",
                points_raw.line,
                points_raw.column,
            )
        fields["sweep"] = (
            raw.value,
            _as_float(entries["sweep_from"]),
            _as_float(entries["sweep_to"]),
            points,
        )

    cfg = RunConfig(**fields)
    for key, attr, ok, want in (
        ("tau", "tau", cfg.tau > 0, "positive"),
        ("hbar", "hbar", cfg.hbar > 0, "positive"),
        ("p_plus", "p_plus", 0.0 <= cfg.p_plus <= 0.5, "in [0, 1/2]"),
    ):
        if not ok:
            raw = entries.get(key)
            raise ConfigError(
                f"{key} must be {want}, got {getattr(cfg, attr)}",
                raw.line if raw else None,
                raw.column if raw else None,
            )
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _finite(text: str) -> float:
    """float(text), raising ValueError for nan and infinities too."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"a computed result is not finite ({x})")
    return format(x, ".17g")


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


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
    try:
        text = Path(spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read groupoid file {spec!r}: {exc}") from None
    return build_from_table(text)


def _build_lagrangian(cfg: RunConfig, g: FiniteGroupoid) -> QLagrangian | None:
    """Weights for the configured groupoid; None when nothing is specified."""
    if cfg.groupoid_spec == "a2":  # g is the a2 that _build_groupoid built
        return QLagrangian(g, _qubit_weights(cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta))
    spec = cfg.pair_lagrangian
    if spec is None:
        return None
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ConfigError(f"pair_lagrangian must be kind:value, got {spec!r}")
    if kind == "constant":
        try:
            r = _finite(arg)
        except ValueError:
            raise ConfigError(f"bad constant weight {arg!r}") from None
        return QLagrangian(g, np.full(len(g.elements), complex(r, 0.0)))
    if kind == "index_diff":
        try:
            s = _finite(arg)
        except ValueError:
            raise ConfigError(f"bad index_diff scale {arg!r}") from None
        return QLagrangian(g, _index_diff_weights(g, s))
    if kind == "file":
        try:
            text = Path(arg).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read weight file {arg!r}: {exc}") from None
        try:
            a = element_from_lines(g, text)
        except ValueError as exc:
            raise ConfigError(f"bad weight file {arg!r}: {exc}") from None
        return QLagrangian(g, {e: a[e] for e in g.elements})
    raise ConfigError(f"unknown pair_lagrangian kind {kind!r}")


def _index_diff_weights(g: FiniteGroupoid, s: float) -> np.ndarray:
    """1j * s * (i_target - i_source) per element, with the bits of that Python expression.

    ``1j * s`` is a Python complex c; times the integer d, CPython (through
    3.13) forms (c.real*d - c.imag*0.0, c.real*0.0 + c.imag*d), signed zeros
    included, and overflows to inf without raising.
    """
    c = 1j * s
    d = (g.target.array - g.source.array).astype(float)
    w = np.empty(len(d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        w.real = c.real * d - c.imag * 0.0
        w.imag = c.real * 0.0 + c.imag * d
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
    base = dict(
        v_plus=cfg.v_plus,
        v_minus=cfg.v_minus,
        mu=cfg.mu,
        delta=cfg.delta,
        p_plus=cfg.p_plus,
        tau=cfg.tau,
        hbar=cfg.hbar,
    )
    if cfg.gamma_mode == "solve":
        solution = solve_unitary_gammas(
            cfg.v_plus, cfg.v_minus, cfg.mu, cfg.delta, cfg.p_plus, cfg.tau, cfg.hbar,
            lam=cfg.lam, sigma=cfg.sigma, gauge=cfg.gauge,
        )
        if not solution.feasible:
            raise InfeasibleModel(solution.min_residual)
        return solution.model, solution.u, solution.report
    if cfg.gamma_mode == "explicit":
        base.update(gamma_mm=cfg.gamma_mm, gamma_mp=cfg.gamma_mp, gamma_pm=cfg.gamma_pm, gamma_pp=cfg.gamma_pp)
    model = PropagatorModel(**base)
    return model, qubit_propagator(model), None


def _matrix_lines(label: str, m: np.ndarray, outcomes: tuple[str, ...]) -> list[str]:
    lines = []
    for i, b in enumerate(outcomes):
        for j, a in enumerate(outcomes):
            lines.append(f"{label}[{b}][{a}] = {_fmt_c(m[i, j])}")
    return lines


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
    model, u, report = _step_from_config(cfg)
    if report is None:  # the step matrix is already built: take its residuals, do not rebuild it
        report = _step_report(model, u)
    lines = _matrix_lines("U", u, g.outcomes)
    if cfg.gamma_mode == "solve":
        lines += [
            f"gamma_mm = {_fmt_c(model.gamma_mm)}",
            f"gamma_mp = {_fmt_c(model.gamma_mp)}",
            f"gamma_pm = {_fmt_c(model.gamma_pm)}",
            f"gamma_pp = {_fmt_c(model.gamma_pp)}",
        ]
    for k, r in enumerate(report.residuals):
        block, entry = divmod(k, 4)
        lines.append(f"residual_{block + 1}_{entry + 1} = {_fmt(r)}")
    lines += [
        f"max_residual = {_fmt(report.max_residual)}",
        f"relation1_gap = {_fmt(report.relation1_gap)}",
        f"relation2_gap = {_fmt(report.relation2_gap)}",
        f"global_phase_gap = {_fmt(report.global_phase_gap)}",
        f"frobenius_left = {_fmt(report.frobenius_left)}",
        f"frobenius_right = {_fmt(report.frobenius_right)}",
    ]
    if power is not None:
        if power < 0:
            raise ConfigError(f"--power must be non-negative, got {power}")
        lines += _matrix_lines(f"U^{power}", power_propagator(u, power), g.outcomes)
    return 0, _text(lines)


def cmd_pathsum(cfg: RunConfig, steps: int | None, check_semigroup: str | None) -> tuple[int, str]:
    g = _build_groupoid(cfg)
    ell = _build_lagrangian(cfg, g)
    if ell is None:
        raise ConfigError("pathsum on a non-qubit groupoid requires pair_lagrangian")
    bias = _build_bias(cfg, g)
    n = cfg.steps if steps is None else steps
    if n < 1:
        raise ConfigError(f"pathsum requires steps >= 1, got {n}")
    m = n_step_path_sum(g, ell, bias, cfg.tau, cfg.hbar, n)
    lines = ["row,col,re,im"]
    for i, b in enumerate(g.outcomes):
        for j, a in enumerate(g.outcomes):
            lines.append(f"{b},{a},{_fmt(m[i, j].real)},{_fmt(m[i, j].imag)}")
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
        m1 = n_step_path_sum(g, ell, bias, cfg.tau, cfg.hbar, n1)
        m2 = n_step_path_sum(g, ell, bias, cfg.tau, cfg.hbar, n2)
        gap = m - fixed_order_matmul(m2, m1)
        deviation = float(np.hypot(gap.real, gap.imag).max())
        lines.append(f"semigroup_deviation = {_fmt(deviation)}")
    return 0, _text(lines)


def cmd_sweep(cfg: RunConfig) -> tuple[int, str]:
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep block in the config")
    _, start, stop, count = cfg.sweep
    grid = np.linspace(start, stop, count)
    scan = quantization_scan(
        cfg.v_plus, cfg.v_minus, cfg.delta, cfg.p_plus, cfg.tau, cfg.hbar,
        cfg.lam, cfg.sigma, cfg.gauge, grid,
    )
    for column in (scan.mu_tau_over_hbar, scan.min_residual):
        finite = np.isfinite(column)
        if not finite.all():
            raise ValueError(f"a computed result is not finite ({column[~finite][0]})")
    m = scan.model  # the vertex factors do not depend on mu
    gammas = ",".join(_fmt_c(z) for z in (m.gamma_mm, m.gamma_pm, m.gamma_mp, m.gamma_pp))
    row = "%.17g,%d,%.17g," + gammas  # no % to escape: gammas holds digits, signs, dots, e and commas
    columns = zip(scan.mu_tau_over_hbar.tolist(), scan.feasible_mask.tolist(), scan.min_residual.tolist())
    return 0, _text([SWEEP_HEADER, *[row % values for values in columns]])


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
    _, u, _ = _step_from_config(cfg)
    n = cfg.steps if steps is None else steps
    if n < 0:
        raise ConfigError(f"steps must be non-negative, got {n}")
    final = evolve_state(u, state, n)
    lines = [f"psi[{o}] = {_fmt_c(z)}" for o, z in zip(g.outcomes, final.amplitudes)]
    lines.append(f"norm = {_fmt(final.norm())}")
    return 0, _text(lines)


def cmd_coarse_grain(cfg: RunConfig, partition_spec: str) -> tuple[int, str]:
    g = _build_groupoid(cfg)
    if not is_principal(g):
        raise ConfigError("coarse-grain command requires a pair groupoid")
    ell = _build_lagrangian(cfg, g)
    if ell is None:
        raise ConfigError("coarse-grain requires pair_lagrangian")
    blocks = tuple(
        tuple(member.strip() for member in block.split(","))
        for block in partition_spec.split("|")
    )
    partition = OutcomePartition(blocks)
    quotient, ell2 = coarse_grain(g, partition, ell)
    weights = [f"{e} = {_fmt_c(ell2[e])}" for e in quotient.elements]
    return 0, multiplication_table(quotient) + _text(["", "lagrangian:", *weights])


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="groupoidqm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--state" in argv[:-1]:
        # argparse reads a value such as '-1,0;0,0' as an option unless attached with '='
        i = argv.index("--state")
        argv[i : i + 2] = [f"--state={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "validate":
                rc, text = cmd_validate(cfg)
            elif args.command == "table":
                rc, text = cmd_table(cfg)
            elif args.command == "propagator":
                rc, text = cmd_propagator(cfg, args.power)
            elif args.command == "pathsum":
                rc, text = cmd_pathsum(cfg, args.steps, args.check_semigroup)
            elif args.command == "sweep":
                rc, text = cmd_sweep(cfg)
            elif args.command == "evolve":
                rc, text = cmd_evolve(cfg, args.state, args.steps)
            else:
                rc, text = cmd_coarse_grain(cfg, args.partition)
    except InfeasibleModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupoidParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: arithmetic out of floating-point range ({exc})", file=sys.stderr)
        return 1
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return rc


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
