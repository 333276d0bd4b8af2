"""The public API: what riccatilab exports must exist."""

import ast
from pathlib import Path

import riccatilab as rl


def test_every_exported_name_resolves():
    assert [name for name in rl.__all__ if not hasattr(rl, name)] == []
    assert len(set(rl.__all__)) == len(rl.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from riccatilab import *", namespace)
    assert set(rl.__all__) <= namespace.keys()


def test_no_module_imports_a_name_it_never_uses():
    # no linter ships with the project; this catches imports left behind
    # when the code that used them is deleted
    unused = []
    for path in sorted(Path(rl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{n} {name}" for name, n in imported.items() if name not in used]
    assert unused == []


def test_every_private_module_name_is_referenced():
    # a module-level _name (function, class or constant) that no module of
    # the package reads is dead code; `from .m import _name` counts as a read
    defined, referenced = {}, set()
    for path in sorted(Path(rl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in referenced) == []


def test_every_error_class_is_raised_somewhere():
    # an error class nothing raises is dead API
    from riccatilab import errors

    raised = set()
    for path in sorted(Path(rl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.RiccatiLabError)
        and obj is not errors.RiccatiLabError
    ]
    assert classes and sorted(set(classes) - raised) == []


def test_no_function_has_a_parameter_it_never_reads():
    # a parameter the body ignores is an input the caller believes matters;
    # self and cls are exempt, and a nested function reading it counts
    unread = []
    for path in sorted(Path(rl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.name}:{node.lineno} {name}({a.arg})"
                for a in params if a.arg not in ("self", "cls") and a.arg not in read
            ]
    assert unread == []
