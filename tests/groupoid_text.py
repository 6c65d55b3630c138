"""The writer for the groupoid file format, for tests that build groupoid files.

No command writes a groupoid file, so the writer lives beside the tests; its
output is the format that ``build_from_table`` parses, and the round-trip
tests in test_groupoid.py hold the two together.
"""

from groupoidqm.groupoid import FiniteGroupoid


def groupoid_to_text(g: FiniteGroupoid) -> str:
    """Serialize to the line-oriented description format parsed by build_from_table."""
    lines = [f"# finite groupoid: {len(g.outcomes)} outcomes, {len(g.elements)} elements"]
    lines.append("outcomes: " + " ".join(g.outcomes))
    for e in g.elements:
        lines.append(f"element: {e} {g.source[e]} {g.target[e]}")
    for o in g.outcomes:
        lines.append(f"unit: {o} {g.unit_of[o]}")
    seen: set[str] = set()
    for e in g.elements:
        if e in seen:
            continue
        inv = g.inverse[e]
        seen.add(e)
        seen.add(inv)
        lines.append(f"inverse: {e} {inv}")
    names, n = g.elements, len(g.elements)
    for b, row in enumerate(g.compose_table.table[:n, :n].tolist()):
        lines.extend(f"compose: {names[b]} {names[a]} = {names[c]}" for a, c in enumerate(row) if c != n)
    return "\n".join(lines) + "\n"
