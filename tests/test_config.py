"""The table-driven config parser against the parser it replaced, and its dead-key rule.

``_oracle_parse`` is the former ``parse_config``: per-kind key sets, per-kind
branches and a range loop after ``RunConfig(...)``, on the same unchanged
value helpers.  It also makes the ``pair_lagrangian`` checks that
``_build_lagrangian`` made when a command built pair weights; those messages
carried no position, and the table's converter gives them the value's line
and column.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm import cli
from groupoidqm.cli import (
    MAX_ELEMENTS,
    MAX_SWEEP_POINTS,
    ConfigError,
    RunConfig,
    _as_complex,
    _as_float,
    _as_int,
    _finite,
    _entries,
    _pair_size,
    parse_config,
)

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


def _parse_entries(text: str) -> dict[str, tuple[str, int, int]]:
    """key -> (value, line, column of the value), all 1-based: the lines of cli._entries as one mapping."""
    return {name: (value, line, column) for name, value, line, column in _entries(text)}


def _oracle_lagrangian(spec: str) -> None:
    """The spec checks of the former _build_lagrangian, without building weights."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ConfigError(f"pair_lagrangian must be kind:value, got {spec!r}")
    if kind == "constant":
        try:
            _finite(arg)
        except ValueError:
            raise ConfigError(f"bad constant weight {arg!r}") from None
    elif kind == "index_diff":
        try:
            _finite(arg)
        except ValueError:
            raise ConfigError(f"bad index_diff scale {arg!r}") from None
    elif kind != "file":
        raise ConfigError(f"unknown pair_lagrangian kind {kind!r}")


def _oracle_parse(text: str) -> RunConfig:
    """The former parse_config, then the former pair_lagrangian checks whenever the key is present."""
    entries = _parse_entries(text)
    for name, (_, line, _) in entries.items():
        if name not in _ALL_KEYS:
            raise ConfigError(f"unknown key {name!r}", line, 1)

    fields: dict[str, object] = {}
    if "groupoid" in entries:
        value, line, column = entries["groupoid"]
        fields["groupoid_spec"] = value
        size = _pair_size(value, line, column)
        if size is not None and size >= 1 and size * size > MAX_ELEMENTS:  # size < 1 fails at build
            raise ConfigError(
                f"pair:{size} has {size * size} elements, at most {MAX_ELEMENTS} are allowed",
                line,
                column,
            )
    for key, attr in _FLOAT_KEYS.items():
        if key in entries:
            fields[attr] = _as_float(*entries[key])
    for key in _COMPLEX_KEYS:
        if key in entries:
            fields[key] = _as_complex(*entries[key])
    if "steps" in entries:
        n = _as_int(*entries["steps"])
        if n < 0:
            raise ConfigError(f"steps must be non-negative, got {n}", *entries["steps"][1:])
        fields["steps"] = n
    if "gamma_mode" in entries:
        value, line, column = entries["gamma_mode"]
        if value not in ("unit", "explicit", "solve"):
            raise ConfigError(f"gamma_mode must be unit, explicit or solve, got {value!r}", line, column)
        fields["gamma_mode"] = value
    if "pair_lagrangian" in entries:
        fields["pair_lagrangian"] = entries["pair_lagrangian"][0]

    present = [k for k in _SWEEP_KEYS if k in entries]
    if present:
        missing = [k for k in _SWEEP_KEYS if k not in entries]
        if missing:
            raise ConfigError(
                f"sweep block incomplete, missing {', '.join(missing)}", entries[present[0]][1], 1
            )
        value, line, column = entries["sweep_parameter"]
        if value != "mu_tau_over_hbar":
            raise ConfigError(f"unsupported sweep parameter {value!r}", line, column)
        points = _as_int(*entries["sweep_points"])
        if not 2 <= points <= MAX_SWEEP_POINTS:
            bound = "at least 2" if points < 2 else f"at most {MAX_SWEEP_POINTS}"
            raise ConfigError(f"sweep_points must be {bound}, got {points}", *entries["sweep_points"][1:])
        fields["sweep"] = (
            value,
            _as_float(*entries["sweep_from"]),
            _as_float(*entries["sweep_to"]),
            points,
        )

    cfg = RunConfig(**fields)
    for key, attr, ok, want in (
        ("tau", "tau", cfg.tau > 0, "positive"),
        ("hbar", "hbar", cfg.hbar > 0, "positive"),
        ("p_plus", "p_plus", 0.0 <= cfg.p_plus <= 0.5, "in [0, 1/2]"),
    ):
        if not ok:
            _, line, column = entries.get(key, (None, None, None))
            raise ConfigError(f"{key} must be {want}, got {getattr(cfg, attr)}", line, column)
    if cfg.pair_lagrangian is not None:
        _oracle_lagrangian(cfg.pair_lagrangian)
    return cfg


def _live(name: str, cfg: RunConfig) -> bool:
    """Whether some command reads the key under cfg, from the command bodies."""
    a2 = cfg.groupoid_spec == "a2"
    sweep = cfg.sweep is not None
    weights = a2 or cfg.pair_lagrangian is not None
    if name == "groupoid" or name in _SWEEP_KEYS:
        return True
    if name in ("mu", "gamma_mode"):
        return a2
    if name in ("V_plus", "V_minus", "delta", "p_plus"):
        return a2 or sweep
    if name in ("tau", "hbar"):
        return weights or sweep
    if name == "steps":
        return weights
    if name in _COMPLEX_KEYS:
        return a2 and cfg.gamma_mode == "explicit"
    if name in ("Lambda", "Sigma", "gauge"):
        return a2 and cfg.gamma_mode == "solve" or sweep
    assert name == "pair_lagrangian"
    return not a2


def _dead_message(name: str, line: int) -> str:
    return f"line {line}, column 1: {name} is read by no command under this config"


_REAL = st.floats(-1e3, 1e3).map(repr)
_POSITIVE = st.floats(1e-3, 1e3).map(repr)
_NOT_REAL = ["abc", "", "1,2", "nan", "-inf", "inf", "NaN", "1e999", "0x10"]
_REAL_KEYS = ("V_plus", "V_minus", "mu", "delta", "Lambda", "Sigma", "gauge", "sweep_from", "sweep_to")
# key -> a valid value
_VALID = {
    **{key: _REAL for key in _REAL_KEYS},
    "tau": _POSITIVE,
    "hbar": _POSITIVE,
    "p_plus": st.floats(0.0, 0.5).map(repr),
    "steps": st.integers(0, 50).map(str),
    "gamma_mode": st.sampled_from(["unit", "explicit", "solve"]),
    **{key: st.tuples(_REAL, _REAL).map(",".join) for key in _COMPLEX_KEYS},
    "groupoid": st.sampled_from(["a2", "pair:3", "pair:32", "pair:-40", "net.groupoid"]),
    "sweep_parameter": st.just("mu_tau_over_hbar"),
    "sweep_points": st.integers(2, MAX_SWEEP_POINTS).map(str),
    "pair_lagrangian": st.sampled_from(
        ["constant:0.5", "constant:-1e3", "index_diff:0.25", "file:w.weights", "file:"]
    ),
}
# key -> valid values at the edges of the ranges
_EDGES = {
    "tau": ["5e-324", "1e308"],
    "hbar": ["5e-324"],
    "p_plus": ["0", "-0.0", "0.5"],
    "steps": ["0", "+7", "1_000"],
    "groupoid": ["pair:32", "pair:0", "pair:-40"],
    "sweep_points": ["2", str(MAX_SWEEP_POINTS)],
    "pair_lagrangian": ["constant:-0.0", "index_diff:1e308", "file:"],
}
# key -> values the parser rejects, out of range ones first
_REJECTED = {
    **{key: _NOT_REAL for key in _REAL_KEYS},
    "tau": ["0", "-0.0", "-1.5", *_NOT_REAL],
    "hbar": ["0", "-2", "-1e-300", *_NOT_REAL],
    "p_plus": ["0.75", "-0.1", "0.5000001", *_NOT_REAL],
    "steps": ["-3", "1.5", "x", "", "1e3"],
    "gamma_mode": ["magic", "Unit", ""],
    **{key: ["1", "1,2,3", "a,b", "1,nan", "inf,0", ""] for key in _COMPLEX_KEYS},
    "groupoid": ["pair:33", "pair:x", "pair:", "pair:1e3"],
    "sweep_parameter": ["tau", "", "mu"],
    "sweep_points": ["1", "0", "-5", "100001", "x"],
    "pair_lagrangian": ["constant", "constant:abc", "index_diff:nan", "bogus:1", "constant:inf", ":1", "file"],
}
_BAD_LINES = ["cheese = 1", "Mu = 0.5", "sweep_step = 2", "mu 1.0", " = 3", "tau"]  # unknown or malformed
_EXTRA = ["partial sweep block", "duplicate key", "bad line", *[None] * 9]  # a fault beyond a bad value, or none


@st.composite
def _config(draw):
    """(config text, number of faults in it); a fault is what the former parser alone rejects.

    Few draws per config, so that hundreds of configs take about a second.
    """
    context = RunConfig(
        groupoid_spec=draw(_VALID["groupoid"]),
        gamma_mode=draw(_VALID["gamma_mode"]),
        sweep=("mu_tau_over_hbar", 0.0, 1.0, 2) if draw(st.booleans()) else None,
        pair_lagrangian="constant:1" if draw(st.booleans()) else None,
    )
    keys = sorted(_ALL_KEYS.difference(_SWEEP_KEYS), key=lambda name: not _live(name, context))
    live = sum(_live(name, context) for name in keys)
    mask = draw(st.integers(0, 2**live - 1))  # about half the keys the context reads
    names = [name for i, name in enumerate(keys[:live]) if mask >> i & 1]
    if live < len(keys) and draw(st.integers(0, 4)) == 0:  # and now and then one it does not
        names.append(draw(st.sampled_from(keys[live:])))
    if context.sweep is not None:
        names += _SWEEP_KEYS
    extra = draw(st.sampled_from(_EXTRA))
    faults = int(extra is not None)
    if extra == "partial sweep block":
        names = [name for name in names if name not in _SWEEP_KEYS]
        names += draw(st.lists(st.sampled_from(_SWEEP_KEYS), min_size=1, max_size=3, unique=True))
    values = {"groupoid": context.groupoid_spec, "gamma_mode": context.gamma_mode}
    lines = [f"{name} = {values[name] if name in values else draw(_VALID[name])}" for name in names]
    bad = draw(st.integers(0, 4 * len(lines)))  # one value the parser rejects, now and then
    if bad < len(lines):
        lines[bad] = f"{names[bad]} = {draw(st.sampled_from(_REJECTED[names[bad]]))}"
        faults += 1
    if extra == "duplicate key" and lines:
        lines.append(draw(st.sampled_from(lines)))
    elif extra is not None and extra != "partial sweep block":
        lines.append(draw(st.sampled_from(_BAD_LINES)))
    lines += ["", "# a comment", "   "][: draw(st.integers(0, 3))]
    random.Random(draw(st.integers(0, 2**32))).shuffle(lines)
    if draw(st.booleans()):
        lines = [f"  {line.replace(' = ', '=')}" for line in lines]
    return "\n".join(lines), faults


def _outcome(parse, text):
    try:
        return parse(text)
    except ConfigError as exc:
        return exc


def _check_against_the_former_parser(text: str, faults: int) -> None:
    """Compare parse_config with the former parser on a config holding `faults` faults.

    Where the former parser accepts, parse_config returns the same RunConfig or
    rejects the first dead key.  Where it rejects, parse_config rejects too, with
    the same message, line and column when that is the config's only fault.
    """
    want, got = _outcome(_oracle_parse, text), _outcome(parse_config, text)
    assert isinstance(want, RunConfig) == (faults == 0), (text, want)
    if isinstance(want, RunConfig):
        entries = _parse_entries(text)
        dead = [name for name in entries if not _live(name, want)]
        if dead:
            assert isinstance(got, ConfigError) and str(got) == _dead_message(dead[0], entries[dead[0]][1])
        else:
            assert got == want
        return
    assert isinstance(got, ConfigError), text
    if faults == 1:
        expected = (str(want), want.line, want.column)
        if want.line is None:  # a pair_lagrangian spec: now reported at the value
            _, line, column = _parse_entries(text)["pair_lagrangian"]
            expected = (f"line {line}, column {column}: {want}", line, column)
        assert (str(got), got.line, got.column) == expected, text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_config())
def test_parse_config_matches_the_former_parser(generated):
    _check_against_the_former_parser(*generated)


_SWEEP = "sweep_parameter = mu_tau_over_hbar\nsweep_from = 0\nsweep_to = 1\nsweep_points = 3\n"
_PAIR = "groupoid = pair:3\n"
_WEIGHTED_PAIR = "groupoid = pair:3\npair_lagrangian = constant:1\n"
# key -> (a config where some command reads it, a config where none does, or
# None when every config is read); the key's own line comes last.
_LIVE_AND_DEAD = {
    "groupoid": ("", None),
    "V_plus": ("", _PAIR),
    "V_minus": (_PAIR + _SWEEP, _WEIGHTED_PAIR),
    "mu": ("gamma_mode = solve\n", _PAIR + _SWEEP),
    "delta": (_SWEEP, _WEIGHTED_PAIR),
    "p_plus": (_PAIR + _SWEEP, "groupoid = net.groupoid\npair_lagrangian = file:w.weights\n"),
    "tau": (_WEIGHTED_PAIR, _PAIR),
    "hbar": (_PAIR + _SWEEP, "groupoid = net.groupoid\n"),
    "steps": (_WEIGHTED_PAIR, _PAIR + _SWEEP),
    "gamma_mode": (_SWEEP, _PAIR + _SWEEP),
    "gamma_mm": ("gamma_mode = explicit\n", "gamma_mode = solve\n"),
    "gamma_mp": ("gamma_mode = explicit\n", ""),
    "gamma_pm": ("gamma_mode = explicit\n", _SWEEP),
    "gamma_pp": ("gamma_mode = explicit\n", _PAIR),
    "Lambda": ("gamma_mode = solve\n", "gamma_mode = explicit\n"),
    "Sigma": (_SWEEP, ""),
    "gauge": (_PAIR + _SWEEP, _WEIGHTED_PAIR),
    "sweep_parameter": (_SWEEP.replace("sweep_parameter = mu_tau_over_hbar\n", ""), None),
    "sweep_from": (_SWEEP.replace("sweep_from = 0\n", ""), None),
    "sweep_to": (_SWEEP.replace("sweep_to = 1\n", ""), None),
    "sweep_points": (_SWEEP.replace("sweep_points = 3\n", ""), None),
    "pair_lagrangian": (_PAIR, ""),
}
_SAMPLE = {
    "groupoid": "pair:4", "sweep_parameter": "mu_tau_over_hbar", "sweep_points": "4", "steps": "2",
    "gamma_mode": "unit", "pair_lagrangian": "index_diff:0.5", **{key: "1,0" for key in _COMPLEX_KEYS},
}


def test_the_live_and_dead_cases_cover_every_key():
    assert set(_LIVE_AND_DEAD) == set(cli._KEYS) == _ALL_KEYS


@pytest.mark.parametrize(
    "name, live",
    [(name, True) for name in _LIVE_AND_DEAD]
    + [(name, False) for name, (_, dead) in _LIVE_AND_DEAD.items() if dead is not None],
    ids=lambda v: {True: "live", False: "dead"}.get(v, v),
)
def test_a_key_is_an_error_where_no_command_reads_it(name, live):
    text = f"{_LIVE_AND_DEAD[name][0 if live else 1]}{name} = {_SAMPLE.get(name, '0.25')}\n"
    if live:
        assert _live(name, parse_config(text))
    else:
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == _dead_message(name, text.count("\n"))


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_each_edge_and_rejected_value_keeps_its_former_outcome(name):
    for values, faults in ((_EDGES.get(name, []), 0), (_REJECTED[name], 1)):
        for value in values:
            _check_against_the_former_parser(f"{_LIVE_AND_DEAD[name][0]}{name} = {value}\n", faults)


@pytest.mark.parametrize(
    "text, name, line",
    [
        ("groupoid = pair:3\ngamma_pp = 1,0\ngamma_mode = explicit\n", "gamma_pp", 2),
        ("groupoid = pair:3\nLambda = 1\ngamma_mode = solve\n", "Lambda", 2),
        ("mu = 1\n" + _SWEEP + "groupoid = pair:3\n", "mu", 1),
        ("steps = 2\n" + _SWEEP + "groupoid = pair:3\n", "steps", 1),
    ],
)
def test_the_first_dead_key_in_the_file_is_reported(text, name, line):
    # a key is judged on the whole config, whatever lines follow it
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == _dead_message(name, line)
