"""Every imported name in the package and its tests is referenced."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "zerosep").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    unused = {}
    for path in FILES:
        found = _unused_imports(ast.parse(path.read_text(), str(path)))
        if found:
            unused[str(path.relative_to(ROOT))] = found
    assert unused == {}
