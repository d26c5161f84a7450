"""Below the command line every value is a plain float or array, checked
once by ``config``: only ``core``, the package root and
``rates.rbc_cf_rates`` name the scalar value classes, which are the
benchmark's API.  ``import noma_rbc`` exports that API and ``__version__``,
and loads nothing else."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import noma_rbc

PACKAGE = Path(noma_rbc.__file__).parent
VALUE_CLASSES = {"LinkGains", "PowerSplit", "CompressionNoise", "RatePair"}
ALLOWED = {"core.py", "__init__.py"}


def value_class_names(source: str, allowed_function: str = "") -> list[str]:
    """Value-class names of ``source`` in code, outside the function
    ``allowed_function``, as "line: name".  Docstrings and comments do not
    count."""
    tree = ast.parse(source)
    skip = {node for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == allowed_function
            for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, node.col_offset, name) for name in names if name in VALUE_CLASSES]
    return [f"{line}: {name}" for line, _, name in sorted(found)]


def test_no_module_below_the_root_names_a_value_class():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ALLOWED:
            continue
        allowed = "rbc_cf_rates" if path.name == "rates.py" else ""
        assert value_class_names(path.read_text(encoding="utf-8"), allowed) == [], path.name


def test_the_check_finds_a_value_class():
    source = ('"""LinkGains in a docstring."""\n'
              "from .core import ChannelParams, PowerSplit\n"
              "def f(g):\n    return core.LinkGains(g, 0.0)\n"
              "def g(p: RatePair):\n    from .core import CompressionNoise\n")
    assert value_class_names(source) == ["2: PowerSplit", "4: LinkGains", "5: RatePair",
                                         "6: CompressionNoise"]
    assert value_class_names(source, "g") == ["2: PowerSplit", "4: LinkGains"]


PROBE = """
import json, sys, types
import noma_rbc
from noma_rbc import ChannelParams, CompressionNoise, LinkGains, PowerSplit, rbc_cf_rates
names = sorted(n for n, v in vars(noma_rbc).items()
               if not n.startswith("_") and not isinstance(v, types.ModuleType))
loaded = sorted(m for m in sys.modules if m.startswith("noma_rbc"))
print(json.dumps([names, noma_rbc.__version__, loaded]))
"""


def test_the_package_root_exports_the_benchmark_api_and_loads_no_engine():
    # a fresh interpreter: this one has loaded every module already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         check=True).stdout
    names, version, loaded = json.loads(out)
    assert names == ["ChannelParams", "CompressionNoise", "LinkGains", "PowerSplit",
                     "rbc_cf_rates"]
    assert version == noma_rbc.__version__
    # neither the engine (simulation, scheduling) nor discrete or oracle
    assert loaded == ["noma_rbc", "noma_rbc.core", "noma_rbc.rates"]
