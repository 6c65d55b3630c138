"""Property test of the CLI error contract on generated small configs.

Whatever the config, a command exits 0, 1 or 2, never raises out of main,
and never prints a NaN or an infinity as a result.  A key that no command
reads under its config is an exit-1 error at its line.
"""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm.cli import ConfigError, main, parse_config

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)

# magnitudes that overflow exp(), the kernel or |U|^2, a subnormal, and
# spellings of nan and inf
_WILD = st.sampled_from(
    ["nan", "-inf", "inf", "1e300", "-1e300", "400", "-400", "1e-320", "1e155", "0"]
)


def _value(lo, hi):
    """Mostly a finite value in [lo, hi], one time in eight a wild one."""
    tame = st.floats(min_value=lo, max_value=hi, allow_nan=False).map(lambda x: format(x, ".17g"))
    return st.integers(0, 7).flatmap(lambda k: _WILD if k == 0 else tame)


_number = _value(-4.0, 4.0)
_FLOAT_KEYS = {
    "V_plus": _number,
    "V_minus": _number,
    "mu": _number,
    "delta": _value(-1.0, 1.0),
    "p_plus": _value(0.0, 0.5),
    "tau": _value(0.1, 3.0),
    "hbar": _value(0.1, 3.0),
    "Lambda": _number,
    "Sigma": _number,
    "gauge": _value(0.1, 3.0),
}
_GAMMA_KEYS = ("gamma_mm", "gamma_mp", "gamma_pm", "gamma_pp")
_SOLVE_KEYS = ("Lambda", "Sigma", "gauge")


@st.composite
def _invocation(draw):
    """(command, config lines, extra argv, keys that no command would read under the config).

    The config holds only keys that some command reads: explicit gammas only in
    explicit mode, Lambda, Sigma and gauge only in solve mode or beside a sweep block.
    """
    command = draw(st.sampled_from(["propagator", "evolve", "sweep"]))
    mode = draw(st.sampled_from(["unit", "explicit", "solve"]))
    solved = mode == "solve" or command == "sweep"
    lines = [
        f"{key} = {draw(value)}"
        for key, value in _FLOAT_KEYS.items()
        if (solved or key not in _SOLVE_KEYS) and draw(st.booleans())
    ]
    if mode == "explicit":
        lines += [f"{key} = {draw(_number)},{draw(_number)}" for key in _GAMMA_KEYS if draw(st.booleans())]
    lines.append(f"gamma_mode = {mode}")
    lines.append(f"steps = {draw(st.integers(-1, 6))}")
    extra = []
    if command == "sweep":
        lines += [
            "sweep_parameter = mu_tau_over_hbar",
            f"sweep_from = {draw(_number)}",
            f"sweep_to = {draw(_number)}",
            f"sweep_points = {draw(st.integers(2, 50))}",
        ]
    elif command == "evolve":
        extra = [f"--state={draw(_number)},0;0,{draw(_number)}"]
    elif draw(st.booleans()):
        extra = ["--power", str(draw(st.integers(0, 6)))]
    dead = ["pair_lagrangian", *(() if mode == "explicit" else _GAMMA_KEYS), *(() if solved else _SOLVE_KEYS)]
    return command, lines, extra, dead


def _run(command, text, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "-c", path, *extra])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_invocation())
def test_cli_exits_cleanly_on_generated_configs(invocation):
    command, lines, extra, _ = invocation
    rc, out, err = _run(command, "\n".join(lines) + "\n", extra)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert not _NON_FINITE.search(out), out
    assert "is read by no command" not in err, (lines, err)
    if rc != 0:
        assert out == "" and err.startswith("error: ")


@st.composite
def _planted(draw):
    """An invocation whose config gains, at a drawn line, one well-formed key that no command reads."""
    command, lines, extra, dead = draw(_invocation())
    key = draw(st.sampled_from(dead))
    value = {"pair_lagrangian": "constant:1", **{k: "1,0" for k in _GAMMA_KEYS}}.get(key, "0.5")
    at = draw(st.integers(0, len(lines)))
    planted = [*lines[:at], f"{key} = {value}", *lines[at:]]
    return command, lines, planted, extra, key, at + 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_planted())
def test_a_planted_dead_key_is_an_error_at_its_line(generated):
    command, lines, planted, extra, key, line = generated
    rc, out, err = _run(command, "\n".join(planted) + "\n", extra)
    assert (rc, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    try:
        parse_config("\n".join(lines))
    except ConfigError:
        return  # a value the parser rejects is reported before any dead key
    assert err == f"error: line {line}, column 1: {key} is read by no command under this config\n"
