"""Property test of the CLI error contract on generated small configs.

Whatever the config, a command exits 0, 1 or 2, never raises out of main,
and never prints a NaN or an infinity as a result.
"""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm.cli import main

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


@st.composite
def _invocation(draw):
    lines = [f"{key} = {draw(value)}" for key, value in _FLOAT_KEYS.items() if draw(st.booleans())]
    lines += [
        f"{key} = {draw(_number)},{draw(_number)}" for key in _GAMMA_KEYS if draw(st.booleans())
    ]
    lines.append(f"gamma_mode = {draw(st.sampled_from(['unit', 'explicit', 'solve']))}")
    lines.append(f"steps = {draw(st.integers(-1, 6))}")
    command = draw(st.sampled_from(["propagator", "evolve", "sweep"]))
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
    return command, "\n".join(lines) + "\n", extra


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_invocation())
def test_cli_exits_cleanly_on_generated_configs(invocation):
    command, text, extra = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "-c", path, *extra])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not _NON_FINITE.search(out.getvalue()), out.getvalue()
    if rc != 0:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
