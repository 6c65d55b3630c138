"""Seeded inputs, independent references and output checks for the workloads.

Every expected answer is computed here from the package's documented formulas
with plain numpy and cmath; nothing in this module calls groupoidqm, except
the untimed preparation of library-call operands on ``structure``.

A workload is a sequence of passes.  ``make_pass(k)`` returns the operations
of pass ``k``; its inputs depend only on (seed, k), so the same seed gives the
same inputs however many passes a run completes.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-12  # absolute, scaled by max(1, |reference|)
FEASIBLE_TOL = 1e-10  # the program's closed-form acceptance threshold
PHASE_TOL = 1e-9
PLANT_SHIFT = 1e-6

SWEEP_HEADER = (
    "mu_tau_over_hbar,feasible,min_residual,"
    "gamma_mm_re,gamma_mm_im,gamma_pm_re,gamma_pm_im,"
    "gamma_mp_re,gamma_mp_im,gamma_pp_re,gamma_pp_im"
)
A2_OUTCOMES = ("-", "+")
NOT_COMPOSABLE = "∗"


class CheckFailed(Exception):
    """An output differs from its reference; the message says where."""


@dataclass
class Check:
    """Accumulates the worst deviation of one operation's numeric outputs."""

    dev: float = 0.0

    def close(self, what: str, got: complex, want: complex) -> None:
        d = abs(complex(got) - complex(want))
        if not d <= TOL * max(1.0, abs(want)):  # also catches NaN
            raise CheckFailed(f"{what}: got {got!r}, want {want!r}")
        self.dev = max(self.dev, d)

    @staticmethod
    def that(ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation: a groupoidqm command or a library call.

    ``units`` is the work it completes (grid points, histories, commands).  A CLI
    op's result is (exit code, stdout, stderr); a library op's result is what
    the zero-argument callable returned by ``prepare()`` returns.
    ``checker(expected, result)`` raises CheckFailed or returns the worst
    numeric deviation.
    """

    units: int
    expected: dict
    checker: Callable[[dict, object], float]
    argv: list[str] | None = None
    files: dict[str, str] = field(default_factory=dict)
    prepare: Callable[[], Callable[[], object]] | None = None
    latency: bool = True  # a command whose latency enters cmd_p50_ms / cmd_tail_ms

    @property
    def is_command(self) -> bool:
        return self.argv is not None


# --------------------------------------------------------------------------
# Formulas, written out from the propagator docstring and the pair groupoid.


def a2_kernel(v_plus, v_minus, mu, delta, p_plus, tau, hbar) -> np.ndarray:
    """Unit-vertex one-step matrix on (-, +); entry [end, start]."""
    p_minus = 1.0 - p_plus
    root = math.sqrt(p_plus * p_minus)
    return np.array(
        [
            [p_minus * cmath.exp(-1j * tau * v_minus / hbar),
             root * cmath.exp((tau / hbar) * complex(-delta, mu))],
            [root * cmath.exp((tau / hbar) * complex(delta, mu)),
             p_plus * cmath.exp(-1j * tau * v_plus / hbar)],
        ]
    )


def closed_form_gammas(p: dict) -> np.ndarray:
    """Vertex factors [[G_mm, G_mp], [G_pm, G_pp]] of the pinned-gauge solution."""
    p_plus, tau, hbar, gauge = p["p_plus"], p["tau"], p["hbar"], p["gauge"]
    p_minus = 1.0 - p_plus
    growth = math.exp(2.0 * p["delta"] * tau / hbar)
    g_pp = math.sqrt(radicand(p)) / p_plus
    return np.array(
        [
            [g_pp * (p_plus / p_minus) * cmath.exp(1j * p["Sigma"] / hbar),
             gauge * growth * cmath.exp(-1j * p["Lambda"] / hbar)],
            [complex(gauge), complex(g_pp)],
        ]
    )


def radicand(p: dict) -> float:
    """1 - gauge^2 p+ p- exp(2 delta tau / hbar); |G_pp|^2 p+^2 when non-negative."""
    return 1.0 - p["gauge"] ** 2 * p["p_plus"] * (1.0 - p["p_plus"]) * math.exp(
        2.0 * p["delta"] * p["tau"] / p["hbar"]
    )


def phase_root(p: dict) -> float:
    """The mu*tau/hbar in [0, pi) at which the global phase constraint holds."""
    v_bar = 0.5 * (p["V_plus"] + p["V_minus"])
    x = math.pi / 2 + (p["Sigma"] + p["Lambda"]) / (2.0 * p["hbar"]) - p["tau"] * v_bar / p["hbar"]
    return x % math.pi


def pair_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def pair_elements(labels) -> list[str]:
    return [f"({y},{x})" for y in labels for x in labels]


def pair_step(n: int, weight: Callable[[int, int], complex], tau: float, hbar: float) -> np.ndarray:
    """Uniform-bias one-step matrix of pair:n; weight(end, start) by 0-based index."""
    m = np.empty((n, n), dtype=complex)
    for b in range(n):
        for a in range(n):
            m[b, a] = cmath.exp(1j * weight(b, a) * tau / hbar) / n
    return m


# --------------------------------------------------------------------------
# Output parsing shared by the checkers.


def _complex(text: str) -> complex:
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


def _assignments(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        Check.that(bool(sep), f"unparseable line {line!r}")
        pairs[key] = value
    return pairs


def _expect_ok(result) -> str:
    rc, out, err = result
    Check.that(rc == 0, f"exit code {rc}, want 0; stderr {err.strip()!r}")
    Check.that(err == "", f"unexpected stderr {err.strip()!r}")
    return out


def _check_table(lines: list[str], labels) -> None:
    """Rendered multiplication table of the pair groupoid over labels."""
    elements = pair_elements(labels)
    Check.that(len(lines) == len(elements) + 2, f"table has {len(lines)} lines")
    Check.that(lines[0].split() == ["∘"] + elements, "table header lists the wrong elements")
    Check.that(set(lines[1]) == {"-"}, "table rule line missing")
    ends = [(e[1:-1].split(",")) for e in elements]  # [target, source]
    for (z, y1), row in zip(ends, lines[2:]):
        want = [f"({z},{x})" if y1 == y2 else NOT_COMPOSABLE for y2, x in ends]
        cells = row.split()
        Check.that(cells == [f"({z},{y1})"] + want, f"table row ({z},{y1}) is wrong")


# --------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""
    code = 0  # mixes the workload into the per-pass seed

    def __init__(self, seed: int, tiny: bool, workdir: Path, plant: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self.plant = plant

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.code, k])

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def command(self, units, expected, checker, name, config, args) -> Op:
        cfg = self.path(name)
        return Op(units, expected, checker, argv=[args[0], "-c", cfg, *args[1:]], files={cfg: config})

    def warmup(self) -> Op:
        raise NotImplementedError

    def make_pass(self, k: int) -> list[Op]:
        ops = self._pass(k)
        if self.plant and k == 0:
            self._plant(ops[0].expected)
        return ops

    def _pass(self, k: int) -> list[Op]:
        raise NotImplementedError

    def _plant(self, expected: dict) -> None:
        raise NotImplementedError


def _config(values: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in values.items())


def _check_exit_zero(expected, result) -> float:
    _expect_ok(result)
    return 0.0


def _unitary_params(rng: np.random.Generator, feasible_radicand: bool) -> dict:
    """Two-outcome parameters with the radicand clearly on one side of zero."""
    p = {
        "V_plus": float(rng.uniform(-1.0, 1.0)),
        "V_minus": float(rng.uniform(-1.0, 1.0)),
        "delta": float(rng.uniform(-0.3, 0.3)),
        "p_plus": float(rng.uniform(0.15, 0.5)),
        "tau": float(rng.uniform(0.5, 1.5)),
        "hbar": float(rng.uniform(0.7, 1.5)),
        "Lambda": float(rng.uniform(-math.pi, math.pi)),
        "Sigma": float(rng.uniform(-math.pi, math.pi)),
    }
    s = rng.uniform(0.1, 0.9) if feasible_radicand else rng.uniform(-2.0, -0.1)
    spread = p["p_plus"] * (1.0 - p["p_plus"]) * math.exp(2.0 * p["delta"] * p["tau"] / p["hbar"])
    p["gauge"] = float(math.sqrt((1.0 - s) / spread))
    return p


class Sweep(Workload):
    """One 721-point ``sweep`` per pass, then 24 single-point commands.

    Even passes have on-grid feasible points; odd passes have none.
    """

    name = "sweep"
    code = 1

    def warmup(self) -> Op:
        config = _config({"p_plus": 0.5, "sweep_parameter": "mu_tau_over_hbar",
                          "sweep_from": 0.0, "sweep_to": 1.0, "sweep_points": 5})
        return self.command(5, {}, _check_exit_zero, "warmup.cfg", config, ["sweep"])

    def _pass(self, k: int) -> list[Op]:
        rng = self.rng(k)
        on_grid = k % 2 == 0
        p = _unitary_params(rng, feasible_radicand=on_grid)
        half = 10 if self.tiny else 360  # grid step pi/half, 2*half+1 points over 2*pi
        j0 = int(rng.integers(0, half))
        start = phase_root(p) - j0 * math.pi / half
        stop = start + 2.0 * math.pi
        points = 2 * half + 1
        feasible = set()
        if on_grid:
            feasible = {j0, j0 + half} | ({2 * half} if j0 == 0 else set())
        config = _config({**p, "sweep_parameter": "mu_tau_over_hbar", "sweep_from": start,
                          "sweep_to": stop, "sweep_points": points})
        expected = {
            "grid": np.linspace(start, stop, points),
            "feasible": feasible,
            "gammas": closed_form_gammas(p) if on_grid else None,
        }
        return [self.command(points, expected, _check_sweep, f"sweep{k}.cfg", config, ["sweep"]),
                *_single_point_ops(self, rng, k)]

    def _plant(self, expected: dict) -> None:
        expected["feasible"] = expected["feasible"] ^ {1}


def _check_sweep(expected, result) -> float:
    lines = _expect_ok(result).splitlines()
    grid = expected["grid"]
    Check.that(lines[:1] == [SWEEP_HEADER], "sweep header is wrong")
    Check.that(len(lines) == len(grid) + 1, f"sweep has {len(lines) - 1} rows, want {len(grid)}")
    check = Check()
    got_feasible = set()
    for i, row in enumerate(lines[1:]):
        f = row.split(",")
        Check.that(len(f) == 11, f"row {i} has {len(f)} fields")
        check.close(f"row {i} mu_tau_over_hbar", float(f[0]), grid[i])
        Check.that(f[1] in ("0", "1"), f"row {i} feasible flag {f[1]!r}")
        residual = float(f[2])
        if f[1] == "1":
            got_feasible.add(i)
            Check.that(residual <= FEASIBLE_TOL, f"row {i} feasible with residual {residual}")
            g = [complex(float(f[j]), float(f[j + 1])) for j in (3, 5, 7, 9)]  # mm, pm, mp, pp
            want = expected["gammas"]
            if want is not None:
                for name, got, ref in zip(("mm", "pm", "mp", "pp"), g,
                                          (want[0, 0], want[1, 0], want[0, 1], want[1, 1])):
                    check.close(f"row {i} gamma_{name}", got, ref)
        else:
            Check.that(residual > FEASIBLE_TOL, f"row {i} infeasible with residual {residual}")
    Check.that(got_feasible == expected["feasible"],
               f"feasible rows {sorted(got_feasible)}, want {sorted(expected['feasible'])}")
    return check.dev


def _single_point_ops(workload: Workload, rng, k: int) -> list[Op]:
    """Single-point a2 commands that ride along with a scan, 3/4 of them feasible.

    ``propagator`` (some with ``--power``) and ``evolve`` in solve mode: mu set
    from the phase condition, or off it or with a negative radicand for the
    infeasible quarter (exit 2).  Each solves one grid point, so it counts one
    unit; they are not scans, so they stay out of the latency figures.
    """
    per_kind = 1 if workload.tiny else 6
    kinds = [kind for kind in ("evolve", "propagator", "power", "infeasible") for _ in range(per_kind)]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    return [_single_point_op(workload, rng, k, i, kind) for i, kind in enumerate(kinds)]


def _single_point_op(workload: Workload, rng, k: int, i: int, kind: str) -> Op:
    feasible = kind != "infeasible"
    by_radicand = not feasible and rng.random() < 0.5
    p = _unitary_params(rng, feasible_radicand=not by_radicand)
    x = phase_root(p) + math.pi * int(rng.integers(-1, 2))
    if not feasible and not by_radicand:
        x += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, math.pi / 2 - 0.2))
    p["mu"] = x * p["hbar"] / p["tau"]
    config = _config({"gamma_mode": "solve", **p})
    command = "evolve" if kind == "evolve" or (not feasible and rng.random() < 0.5) else "propagator"
    args = [command]
    expected = {"rc": 0 if feasible else 2}
    if feasible:
        u = closed_form_gammas(p) * a2_kernel(
            p["V_plus"], p["V_minus"], p["mu"], p["delta"], p["p_plus"], p["tau"], p["hbar"])
        expected["U"] = u
        expected["gammas"] = closed_form_gammas(p)
    if command == "evolve":
        psi0 = rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        steps = int(rng.integers(0, 21))
        state = ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in psi0)
        args += [f"--state={state}", "--steps", str(steps)]
        if feasible:
            psi = np.linalg.matrix_power(expected["U"], steps) @ psi0
            expected["psi"] = psi
    elif kind == "power":
        n = int(rng.integers(2, 13))
        args += ["--power", str(n)]
        expected["power"] = (n, np.linalg.matrix_power(expected["U"], n))
    op = workload.command(1, expected, _check_solve, f"point{k}_{i}.cfg", config, args)
    op.latency = False
    return op


def _check_solve(expected, result) -> float:
    rc, out, err = result
    Check.that(rc == expected["rc"], f"exit code {rc}, want {expected['rc']}; stderr {err.strip()!r}")
    if rc == 2:
        Check.that(out == "", "infeasible command wrote to stdout")
        Check.that(err.startswith("error: no unitary vertex factors"), f"stderr {err.strip()!r}")
        return 0.0
    values = _assignments(_expect_ok(result))
    check = Check()
    if "psi" in expected:
        for i, o in enumerate(A2_OUTCOMES):
            check.close(f"psi[{o}]", _complex(values[f"psi[{o}]"]), expected["psi"][i])
        check.close("norm", float(values["norm"]), float(np.linalg.norm(expected["psi"])))
        return check.dev
    labels = [("U", expected["U"])]
    if "power" in expected:
        n, un = expected["power"]
        labels.append((f"U^{n}", un))
    for label, m in labels:
        for i, b in enumerate(A2_OUTCOMES):
            for j, a in enumerate(A2_OUTCOMES):
                key = f"{label}[{b}][{a}]"
                Check.that(key in values, f"missing {key}")
                check.close(key, _complex(values[key]), m[i, j])
    g = expected["gammas"]
    for name, ref in (("mm", g[0, 0]), ("mp", g[0, 1]), ("pm", g[1, 0]), ("pp", g[1, 1])):
        check.close(f"gamma_{name}", _complex(values[f"gamma_{name}"]), ref)
    residuals = [float(values[f"residual_{b}_{e}"]) for b in (1, 2) for e in (1, 2, 3, 4)]
    Check.that(max(residuals) <= FEASIBLE_TOL, f"residuals {residuals}")
    Check.that(float(values["max_residual"]) <= FEASIBLE_TOL, "max_residual above tolerance")
    Check.that(float(values["global_phase_gap"]) <= PHASE_TOL, "global_phase_gap above tolerance")
    return check.dev


class PathSum(Workload):
    """Two a2 path sums (N=14, 7+7 semigroup check) and one pair:4 path sum (N=7) per pass.

    The groupoid-structure operations of ``_structure_ops`` follow them.
    """

    name = "pathsum"
    code = 3

    def warmup(self) -> Op:
        config = _config({"mu": 0.5, "p_plus": 0.3, "steps": 3})
        return self.command(16, {}, _check_exit_zero, "warmup.cfg", config, ["pathsum"])

    def _pass(self, k: int) -> list[Op]:
        rng = self.rng(k)
        n_a2, split = (4, (2, 2)) if self.tiny else (14, (7, 7))
        n_pair, size = (3, 3) if self.tiny else (7, 4)
        ops = []
        for i in range(2):
            p = {
                "V_plus": float(rng.uniform(-1.0, 1.0)),
                "V_minus": float(rng.uniform(-1.0, 1.0)),
                "mu": float(rng.uniform(-2.0, 2.0)),
                "delta": float(rng.uniform(-0.2, 0.2)),
                "p_plus": float(rng.uniform(0.1, 0.5)),
                "tau": float(rng.uniform(0.5, 1.2)),
                "hbar": float(rng.uniform(0.8, 1.5)),
            }
            step = a2_kernel(p["V_plus"], p["V_minus"], p["mu"], p["delta"], p["p_plus"], p["tau"], p["hbar"])
            expected = {"outcomes": A2_OUTCOMES, "sum": np.linalg.matrix_power(step, n_a2),
                        "semigroup": True}
            units = 2 * (2 ** n_a2 + 2 ** split[0] + 2 ** split[1])
            ops.append(self.command(units, expected, _check_pathsum, f"a2_{k}_{i}.cfg",
                                    _config({**p, "steps": n_a2}),
                                    ["pathsum", "--check-semigroup", f"{split[0]}+{split[1]}"]))
        tau, hbar = float(rng.uniform(0.5, 1.2)), float(rng.uniform(0.8, 1.5))
        if k % 2 == 0:
            s = float(rng.uniform(-1.0, 1.0))
            spec, weight = f"index_diff:{s!r}", (lambda b, a: 1j * s * (b - a))
        else:
            r = float(rng.uniform(-1.0, 1.0))
            spec, weight = f"constant:{r!r}", (lambda b, a: r)
        expected = {"outcomes": pair_labels(size), "semigroup": False,
                    "sum": np.linalg.matrix_power(pair_step(size, weight, tau, hbar), n_pair)}
        config = _config({"groupoid": f"pair:{size}", "pair_lagrangian": spec, "tau": tau,
                          "hbar": hbar, "steps": n_pair})
        ops.append(self.command(size * size ** n_pair, expected, _check_pathsum, f"pair_{k}.cfg",
                                config, ["pathsum"]))
        return ops + _structure_ops(self, rng, k)

    def _plant(self, expected: dict) -> None:
        expected["sum"] = expected["sum"] + PLANT_SHIFT


def _check_pathsum(expected, result) -> float:
    lines = _expect_ok(result).splitlines()
    outcomes, ref = expected["outcomes"], expected["sum"]
    n = len(outcomes)
    want_lines = 1 + n * n + (1 if expected["semigroup"] else 0)
    Check.that(len(lines) == want_lines, f"{len(lines)} output lines, want {want_lines}")
    Check.that(lines[0] == "row,col,re,im", "path sum header is wrong")
    check = Check()
    rows = iter(lines[1:])
    for i, b in enumerate(outcomes):
        for j, a in enumerate(outcomes):
            f = next(rows).split(",")
            Check.that(f[:2] == [b, a], f"entry ({b},{a}) labelled {f[:2]}")
            check.close(f"sum[{b}][{a}]", complex(float(f[2]), float(f[3])), ref[i, j])
    if expected["semigroup"]:
        key, _, value = lines[-1].partition(" = ")
        Check.that(key == "semigroup_deviation", "semigroup deviation line missing")
        check.close("semigroup_deviation", float(value), 0.0)
    return check.dev


def _structure_ops(workload: Workload, rng, k: int) -> list[Op]:
    """validate, table and coarse-grain on pair:12 and pair:16, plus algebra calls.

    They ride along with the path sums: their time counts in the pass, but they
    are not path-sum commands, so they stay out of the latency figures.
    """
    sizes, coarse = ((4, 5), 1) if workload.tiny else ((12, 16), 2)
    ops = []
    for n in sizes:
        ops.append(_product_op(rng, n))
        s = float(rng.uniform(-1.0, 1.0))
        config = _config({"groupoid": f"pair:{n}", "pair_lagrangian": f"index_diff:{s!r}"})
        cfg = workload.path(f"pair{n}_{k}.cfg")
        labels = pair_labels(n)
        ops.append(Op(0, {"n": n}, _check_validate, argv=["validate", "-c", cfg], files={cfg: config},
                      latency=False))
        ops.append(Op(0, {"labels": labels}, _check_table_command, argv=["table", "-c", cfg], latency=False))
        for _ in range(coarse):
            blocks = _partition(rng, labels)
            spec = "|".join(",".join(b) for b in blocks)
            ops.append(Op(0, {"blocks": blocks, "s": s}, _check_coarse,
                          argv=["coarse-grain", "-c", cfg, "--partition", spec], latency=False))
    return ops


def _partition(rng, labels) -> list[tuple[str, ...]]:
    shuffled = [labels[i] for i in rng.permutation(len(labels))]
    n_blocks = int(rng.integers(2, min(5, len(labels)) + 1))
    cuts = sorted(rng.choice(np.arange(1, len(labels)), size=n_blocks - 1, replace=False))
    return [tuple(shuffled[a:b]) for a, b in zip([0, *cuts], [*cuts, len(labels)])]


def _product_op(rng, n: int) -> Op:
    """fundamental_rep(convolve(a, b)) on seeded pair:n elements, against A @ B."""
    labels = pair_labels(n)
    coeffs = {}
    for which in ("a", "b"):
        chosen = np.flatnonzero(rng.random(n * n) < 0.6)
        values = rng.normal(size=len(chosen)) + 1j * rng.normal(size=len(chosen))
        coeffs[which] = {(int(i) // n, int(i) % n): complex(v) for i, v in zip(chosen, values)}

    def matrix(c):
        m = np.zeros((n, n), dtype=complex)
        for (b, a), v in c.items():
            m[b, a] = v
        return m

    def prepare():
        from groupoidqm import algebra, groupoid

        g = groupoid.build_pair_groupoid(n)
        a, b = (algebra.AlgebraElement(g, {f"({labels[t]},{labels[s]})": v for (t, s), v in coeffs[w].items()})
                for w in ("a", "b"))
        return lambda: algebra.fundamental_rep(algebra.convolve(a, b))

    return Op(0, {"product": matrix(coeffs["a"]) @ matrix(coeffs["b"])}, _check_product, prepare=prepare)


def _check_product(expected, got) -> float:
    ref = expected["product"]
    Check.that(np.shape(got) == ref.shape, f"representation has shape {np.shape(got)}")
    check = Check()
    for (i, j), want in np.ndenumerate(ref):
        check.close(f"rep[{i}][{j}]", got[i, j], want)
    return check.dev


def _check_validate(expected, result) -> float:
    n = expected["n"]
    lines = _expect_ok(result).splitlines()
    want = [f"outcomes = {n}", f"elements = {n * n}", "axioms = ok", "lagrangian = self-adjoint"]
    Check.that(lines == want, f"validate printed {lines[:4]}")
    return 0.0


def _check_table_command(expected, result) -> float:
    _check_table(_expect_ok(result).splitlines(), expected["labels"])
    return 0.0


_WEIGHT_LINE = re.compile(r"^(\S+) = (\S+)$")


def _check_coarse(expected, result) -> float:
    blocks, s = expected["blocks"], expected["s"]
    lines = _expect_ok(result).splitlines()
    labels = [b[0] if len(b) == 1 else "{" + "+".join(b) + "}" for b in blocks]
    n_table = len(labels) ** 2 + 2
    Check.that(len(lines) == n_table + 2 + len(labels) ** 2, f"coarse-grain printed {len(lines)} lines")
    _check_table(lines[:n_table], labels)
    Check.that(lines[n_table:n_table + 2] == ["", "lagrangian:"], "lagrangian block missing")
    mean_index = [np.mean([int(x[1:]) for x in b]) for b in blocks]
    check = Check()
    weights = iter(lines[n_table + 2:])
    for t, lt in enumerate(labels):
        for u, ls in enumerate(labels):
            match = _WEIGHT_LINE.match(next(weights))
            Check.that(match is not None and match[1] == f"({lt},{ls})", f"weight line for ({lt},{ls})")
            check.close(f"weight ({lt},{ls})", _complex(match[2]), 1j * s * (mean_index[t] - mean_index[u]))
    return check.dev


WORKLOADS = {w.name: w for w in (Sweep, PathSum)}
