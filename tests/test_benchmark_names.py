"""Every beambank name the benchmark scripts in perfbench/ import, or call
through an ``import beambank as bb`` alias, exists. The benchmark's traced
mode is not part of this suite, so without this check a library deletion
could break it unseen."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_names() -> set:
    """(module, name) for each ``from beambank[.mod] import name`` and each
    ``alias.name`` on an ``import beambank as alias`` in perfbench/*.py."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "beambank"}
            elif isinstance(node, ast.ImportFrom) and not node.level and (
                node.module.split(".")[0] == "beambank"
            ):
                found |= {(node.module, a.name) for a in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add(("beambank", node.attr))
    return found


def test_every_name_the_benchmark_uses_resolves():
    names = _benchmark_names()
    # the scan sees both import forms: a scan that found nothing would pass
    assert ("beambank", "BlockProcessor") in names
    assert ("beambank.config", "design_settings") in names
    missing = [
        f"{module}.{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
