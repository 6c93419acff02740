"""The library's public surface. A public module-level name of
``src/symfock`` stays only if library code reads it, the benchmark's layer
timings import it (``perfbench/layers.py``), or it is one of the one-output
probability wrappers or a ``cmd_*`` command of the command line. A name
that only tests use belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WRAPPERS = {"prob_boson", "prob_fermion", "prob_distinguishable"}


def public_definitions(tree: ast.Module):
    """The public names that a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def references(tree: ast.Module):
    """The names that code reads, bare or as an attribute: an import alone,
    a definition, a string or a docstring is not a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_user():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "symfock").glob("*.py"))}
    read = {name for tree in modules.values() for name in references(tree)}
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    benchmarked = {alias.name for node in ast.walk(layers)
                   if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symfock")
                   for alias in node.names}
    unused = [f"{module}.{name}" for module, tree in modules.items()
              for name in public_definitions(tree)
              if name not in read | benchmarked | WRAPPERS and not name.startswith("cmd_")]
    assert unused == []
