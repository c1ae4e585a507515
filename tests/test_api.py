"""The public API: every export of the package has a consumer."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conecert"


def _code_references(path):
    """Names a file uses as code: loaded names, imported names and attributes
    of the package (``conecert.x`` or ``cc.x``); strings and assignment
    targets, dataclass fields among them, do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("conecert", "cc")):
            names.add(node.attr)
    return names


def _readme_api_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library API beyond the CLI", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def test_every_export_has_a_consumer():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    consumers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    consumers += [ROOT / "benchmark" / "worker.py", ROOT / "benchmark" / "spans.py",
                  ROOT / "tests" / "test_acceptance.py"]
    consumers += sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*map(_code_references, consumers)) | _readme_api_names()
    missing = sorted(exports - used)
    assert not missing, f"exports with no consumer: {missing}"
