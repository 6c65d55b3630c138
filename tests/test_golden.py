"""Byte-for-byte CLI outputs for fixed configs.

Each tests/golden/NAME.cfg starts with a '# args: COMMAND [OPTIONS]' line;
NAME.out is the stdout of 'groupoidqm COMMAND -c NAME.cfg [OPTIONS]'.  Each
tests/errors/NAME.cfg is a config that must fail cleanly: exit code 1,
nothing on stdout and NAME.err on stderr.  Paths inside the configs are
relative to the repository root, where the commands run.  The CI workflow
also runs every pair through the installed console script.
"""

from pathlib import Path

import pytest

from groupoidqm.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
ERRORS = ROOT / "tests" / "errors"


def _invoke(cfg: Path, monkeypatch) -> int:
    header = cfg.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("# args: ")
    command, *options = header[len("# args: "):].split(" ")
    monkeypatch.chdir(ROOT)
    return main([command, "-c", str(cfg.relative_to(ROOT)), *options])


@pytest.mark.parametrize("cfg", sorted(GOLDEN.glob("*.cfg")), ids=lambda p: p.stem)
def test_golden_output(cfg, capsys, monkeypatch):
    assert _invoke(cfg, monkeypatch) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == cfg.with_suffix(".out").read_text(encoding="utf-8")


@pytest.mark.parametrize("cfg", sorted(ERRORS.glob("*.cfg")), ids=lambda p: p.stem)
def test_error_output(cfg, capsys, monkeypatch):
    assert _invoke(cfg, monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cfg.with_suffix(".err").read_text(encoding="utf-8")
