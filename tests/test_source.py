"""Checks on the package source itself."""

import ast
import importlib
import re
from pathlib import Path

import bifill

SRC = Path(bifill.__file__).parent


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements; the package's internal checks must
    # raise explicitly so they hold under every interpreter flag
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_traced_name_resolves():
    # the benchmark's per-layer trace wraps these names from outside the
    # package and fails when one is gone; perfbench/ is not collected here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
    tree = ast.parse(path.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    assert traced
    missing = []
    for _metric, modname, attr, _kind in traced:
        owner = importlib.import_module(modname)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        # methods are wrapped in their class __dict__, functions as module globals
        held = vars(owner).get(name) if owner is not None else None
        if not callable(held):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_every_exported_name_is_defined():
    # a stale __all__ entry only fails at "from bifill.x import *" time
    missing = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"bifill.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if name not in vars(module):
                missing.append(f"{path.stem}.{name}")
    assert missing == []


def test_every_module_constant_is_read():
    # a constant left behind by deleted code still reads as a live setting;
    # a read is a loaded name or an attribute (module.NAME) anywhere in the
    # package, other than the assignment itself
    constant = re.compile(r"_?[A-Z][A-Z0-9_]*")
    assigned, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            assigned += [
                f"{path.stem}.{t.id}"
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Name) and constant.fullmatch(t.id)
            ]
        read |= {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
        }
    assert assigned
    assert [name for name in assigned if name.split(".")[1] not in read] == []


def test_every_import_is_used():
    # an import left behind by deleted code still reads as a dependency;
    # a use is a loaded name anywhere in the module or an __all__ entry
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        used |= set(getattr(importlib.import_module(f"bifill.{path.stem}"), "__all__", ()))
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []


def test_every_exported_name_has_a_reader():
    # a name the package exports but nothing reads is kept alive by the
    # export alone; a reader is a loaded name or attribute in a package
    # module outside the name's own definition, or a word in README.md or
    # in the benchmark's scripts
    root = Path(__file__).resolve().parents[1]
    exported = [
        alias.asname or alias.name
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
            }
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            read |= names
    for path in [root / "README.md", *sorted((root / "perfbench").glob("*.py"))]:
        read |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    assert exported
    assert [name for name in exported if name not in read] == []
