"""Source hygiene checked with the standard library alone.

No linter is a dependency, so the checks a linter would make on the
package are made here with `ast`: every imported name is used, the
public surface lists only names that resolve to package objects, no
floating point enters the exact geometry, no invariant is an `assert`
that `python -O` would strip, and none raises a bare RuntimeError or
ValueError.
"""

import ast
import types
from pathlib import Path

import convexcover

PACKAGE = Path(convexcover.__file__).resolve().parent


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotation_strings(tree: ast.Module):
    """String annotations such as "ConvexPolygon" name their types too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args)
                           if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def _used_names(tree: ast.Module):
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        used.update(n.id for n in ast.walk(root) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        # re-exports: names listed in __all__ are used by the package's users
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return used


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_no_floats_outside_rendering():
    # SVG output is the one place that may round; every predicate and
    # construction elsewhere stays in ints and Fractions
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "render.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float(...)")
    assert found == []


def test_no_assert_statements():
    # python -O strips assert; invariants raise the typed errors of errors.py
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_untyped_raises():
    # internal invariants raise InvariantViolation and bad calls
    # PreconditionViolation, which the CLI maps to documented exit codes
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "ValueError"):
                    found.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    assert found == []


def test_public_names_resolve_to_objects():
    assert len(set(convexcover.__all__)) == len(convexcover.__all__)
    for name in convexcover.__all__:
        assert hasattr(convexcover, name), name
        assert not isinstance(getattr(convexcover, name), types.ModuleType), name
