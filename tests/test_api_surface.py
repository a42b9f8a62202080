"""Every definition, import and parameter in ``src/mindeg`` is used by the
program.

A function, class or module constant that only tests read is API the
program does not need; it is deleted together with its tests instead of
kept alive by them.
"""

import ast
from pathlib import Path

import mindeg.bsgs

SRC = Path(mindeg.bsgs.__file__).parent
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# part of the brute-force oracle, which the tests check directly
ALLOWED_UNUSED = {"oracle.core"}


def _used_names(tree):
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _definitions(tree):
    """Module-level functions, classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id


def test_every_definition_is_used_in_src():
    used = set().union(*map(_used_names, TREES.values()))
    unused = [f"{mod}.{name}" for mod, tree in TREES.items()
              for name in _definitions(tree) if name not in used]
    assert sorted(set(unused) - ALLOWED_UNUSED) == []


def test_every_import_is_used_in_its_module():
    unused = []
    for mod, tree in TREES.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{mod}: {a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
    assert unused == []


def _parameters(node):
    a = node.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [
        p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in params]


def test_every_parameter_is_read():
    """A parameter that the body never reads is an unused knob; ``self``
    and names starting with ``_`` are exempt."""
    unread = []
    for mod, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", f"<lambda:{node.lineno}>")
            unread += [f"{mod}.{name}({p})" for p in _parameters(node)
                       if p != "self" and not p.startswith("_")
                       and p not in loaded]
    assert unread == []
