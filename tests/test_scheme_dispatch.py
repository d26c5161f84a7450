"""The scheduler, the engine, the command line and the config table name
no scheme: which formulas a scheme uses is the business of ``rates`` and
of the ``Scheme`` properties.  The one member they may name is
``SimConfig``'s default ``schemes`` value."""

import ast
from pathlib import Path

import pytest

import noma_rbc
from noma_rbc.core import Scheme

PACKAGE = Path(noma_rbc.__file__).parent


def default_schemes(tree: ast.Module) -> set:
    """The nodes of ``SimConfig``'s default ``schemes`` value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SimConfig":
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and getattr(field.target, "id", None) == \
                        "schemes":
                    return set(ast.walk(field.value))
    return set()


def scheme_members(source: str) -> list[str]:
    """``Scheme.<MEMBER>`` references of ``source`` outside ``SimConfig``'s
    default ``schemes``, as "line: name"."""
    tree = ast.parse(source)
    allowed = default_schemes(tree)
    return [f"{node.lineno}: Scheme.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "Scheme" and node.attr in Scheme.__members__
            and node not in allowed]


@pytest.mark.parametrize("module", ["scheduling.py", "simulation.py", "cli.py", "config.py"])
def test_the_scheduler_and_the_engine_name_no_scheme(module):
    assert scheme_members((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_scheme_branch():
    source = ("class SimConfig:\n    schemes: tuple = (Scheme.GBC,)\n\n"
              "def f(s):\n    return s is not Scheme.GBC or s in (Scheme.RBC_CF,)\n")
    assert scheme_members(source) == ["5: Scheme.GBC", "5: Scheme.RBC_CF"]
    assert scheme_members("x = Scheme.from_label('gbc')\ny = Scheme\n") == []
