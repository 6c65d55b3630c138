"""The public names that the README and the benchmark's tracer reach.

Deleting a name either of them uses fails here, in the quick tests, rather
than in a reader's session or in a traced benchmark run.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S)
    assert block is not None, "no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})


def test_bench_span_names_exist():
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"groupoidqm.{layer}"), name)
    ]
    assert layers
    assert missing == []
