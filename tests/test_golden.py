"""Byte-for-byte CLI outputs for fixed configs.

Each tests/golden/NAME.cfg starts with a '# args: COMMAND [OPTIONS]' line;
NAME.out is the stdout of 'groupoidqm COMMAND -c NAME.cfg [OPTIONS]'.  The
CI workflow also diffs every pair through the installed console script.
"""

from pathlib import Path

import pytest

from groupoidqm.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("cfg", sorted(GOLDEN.glob("*.cfg")), ids=lambda p: p.stem)
def test_golden_output(cfg, capsys):
    header = cfg.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("# args: ")
    command, *options = header[len("# args: "):].split(" ")
    assert main([command, "-c", str(cfg), *options]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == cfg.with_suffix(".out").read_text(encoding="utf-8")
