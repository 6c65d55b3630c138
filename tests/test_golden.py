"""Byte-for-byte CLI outputs for fixed configs.

Each tests/golden/NAME.cfg starts with a '# args: COMMAND [OPTIONS]' line;
NAME.out is the stdout of 'groupoidqm COMMAND -c NAME.cfg [OPTIONS]'.  Each
tests/errors/NAME.cfg is a config that must fail cleanly: exit code 1,
nothing on stdout and NAME.err on stderr.  Paths inside the configs are
relative to the repository root, where the commands run.  The CI workflow
also runs every pair through the installed console script.  The goldens on
``groupoid = pair:N`` also run twice over in one process, the second time in
reverse order, so that later runs reuse the pair groupoids earlier ones built.
"""

import re
from pathlib import Path

import pytest

from groupoidqm.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
ERRORS = ROOT / "tests" / "errors"
PAIR_GOLDENS = [
    cfg for cfg in sorted(GOLDEN.glob("*.cfg"))
    if re.search(r"^groupoid = pair:\d+$", cfg.read_text(encoding="utf-8"), re.MULTILINE)
]


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


def test_pair_goldens_repeat_byte_for_byte_in_one_process(capsys, monkeypatch):
    assert len(PAIR_GOLDENS) >= 6, PAIR_GOLDENS
    for cfg in [*PAIR_GOLDENS, *reversed(PAIR_GOLDENS)]:
        assert _invoke(cfg, monkeypatch) == 0, cfg.stem
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == ("", cfg.with_suffix(".out").read_text(encoding="utf-8")), cfg.stem


@pytest.mark.parametrize("cfg", sorted(ERRORS.glob("*.cfg")), ids=lambda p: p.stem)
def test_error_output(cfg, capsys, monkeypatch):
    assert _invoke(cfg, monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cfg.with_suffix(".err").read_text(encoding="utf-8")
