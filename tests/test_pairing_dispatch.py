"""The scheduler names no pairing and no neighbour mode: the engine binds
the interval's stages, and only it and ``config``, which checks the
names, read them.  Docstrings may name them."""

import ast
from pathlib import Path

import noma_rbc
from noma_rbc.config import NEIGHBOR_MODES, PAIRINGS

PACKAGE = Path(noma_rbc.__file__).parent
NAMES = set(PAIRINGS + NEIGHBOR_MODES)


def docstrings(tree: ast.Module) -> set:
    """The docstring nodes of the module, its classes and its functions."""
    return {node.body[0].value for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def pairing_names(source: str) -> list[str]:
    """Pairing and neighbour-mode names of ``source`` outside docstrings,
    as string constants or as the tables that list them, as "line: name"."""
    tree = ast.parse(source)
    skip = docstrings(tree)
    found = [node for node in ast.walk(tree) if node not in skip and (
        isinstance(node, ast.Constant) and node.value in NAMES
        or isinstance(node, ast.Name) and node.id in ("PAIRINGS", "NEIGHBOR_MODES"))]
    return [f"{node.lineno}: {getattr(node, 'value', getattr(node, 'id', None))}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_the_scheduler_names_no_pairing():
    assert pairing_names((PACKAGE / "scheduling.py").read_text(encoding="utf-8")) == []


def test_the_check_finds_a_pairing_branch():
    source = ('"""near-far and nearest pairing."""\n\n'
              'def f(pairing, neighbors):\n    """The static map."""\n'
              '    if pairing == "near-far" or neighbors in ("static",):\n'
              '        return pairing not in PAIRINGS\n')
    assert pairing_names(source) == ["5: near-far", "5: static", "6: PAIRINGS"]
    assert pairing_names('x = "far-near" == y\n') == []
