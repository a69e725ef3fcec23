"""Every imported name in the package and its tests is referenced, every
public top-level function and class of the package, and every public method
of its classes, is named in the code of the package or of zsbench beyond its
own definition, every public dataclass field of the package is read
somewhere, and every defaulted parameter of a package function is passed by
some call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "zerosep").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# public names that only tests call, each kept on purpose
UNREACHED_ON_PURPOSE = {
    "eval_dirichlet_sum": "test reference",
    "eval_partial_euler": "test reference",
    "serialize_combination": "test reference",
    "perturbed": "test reference",
}


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


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the module mentions: names, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_definition_is_reached():
    # reached means named in code of the package or of zsbench, apart from
    # its own definition; the package's __init__ re-exports, docstrings and
    # the tests do not count; a method is checked by name, so one sharing
    # its name with a reached name passes unseen
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in PACKAGE + sorted((ROOT / "zsbench").glob("*.py"))
             if path.name != "__init__.py"}
    named = set().union(*(_names(tree) for tree in trees.values()))
    definitions = [(f"{path.stem}.{node.name}", node)
                   for path in PACKAGE if path in trees
                   for node in trees[path].body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions += [(f"{name}.{node.name}", node)
                    for name, cls in definitions if isinstance(cls, ast.ClassDef)
                    for node in cls.body if isinstance(node, ast.FunctionDef)]
    unreached = [name for name, node in definitions
                 if not node.name.startswith("_")
                 and node.name not in named
                 and node.name not in UNREACHED_ON_PURPOSE]
    assert unreached == []
    # an allow-listed name that the program reaches again leaves the list
    assert named.isdisjoint(UNREACHED_ON_PURPOSE)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_public_dataclass_field_is_read():
    # read means loaded as an attribute in the package, zsbench or the tests;
    # the check goes by name, so a field sharing its name with one that is
    # read passes unseen
    sources = PACKAGE + sorted((ROOT / "zsbench").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{stmt.target.id}"
              for path in PACKAGE
              for cls in trees[path].body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and not stmt.target.id.startswith("_")
              and stmt.target.id not in read]
    assert unread == []


def _defaulted_params(fn: ast.FunctionDef, offset: int) -> list:
    """(name, position) of each defaulted parameter; position counts the
    arguments a call passes before it, None for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults) if d is not None]
    return out


def _bound_offset(fn: ast.FunctionDef, in_class: bool) -> int:
    """1 when a call passes the first parameter implicitly (self or cls)."""
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    return int(in_class and not static)


def test_every_defaulted_parameter_is_passed():
    # passed means given by keyword or by position in some call named after
    # the function, in the package, zsbench or the tests; a call with *args
    # or **kwargs passes everything; the check goes by name, so a parameter
    # of a function sharing its name with another one's may pass unseen
    sources = PACKAGE + sorted((ROOT / "zsbench").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    calls: dict = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(fn_name: str, param: str, pos) -> bool:
        for call in calls.get(fn_name, ()):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg in (None, param) for k in call.keywords):
                return True
            if pos is not None and len(call.args) > pos:
                return True
        return False

    unpassed = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or \
                    (fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            offset = _bound_offset(fn, id(fn) in methods)
            unpassed += [f"{path.stem}.{fn.name}({param})"
                         for param, pos in _defaulted_params(fn, offset)
                         if not passed(fn.name, param, pos)]
    assert unpassed == []
