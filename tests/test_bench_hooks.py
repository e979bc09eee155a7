"""The benchmark finds every library name it uses: the tracer's hooks, the
names its scripts import, and the record builders it wraps, so a moved or
renamed function cannot silently zero a per-layer metric or break a
workload."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path[:0] = ["bench", "src"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_tracer_installs_every_hook():
    done = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def _bench_library_names():
    """(module, name, where) for every library name a bench script reads:
    each name imported from a triboverify module, each attribute read off
    an imported triboverify module, and each name in ``_RECORD_BUILDERS``,
    which child.py looks up on ``cli``."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}   # local name -> triboverify module it is bound to
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "triboverify":
                        modules[alias.asname or alias.name] = alias.name
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "triboverify"):
                for alias in node.names:
                    found.append((node.module, alias.name, where))
                    modules[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name)
                          and t.id == "_RECORD_BUILDERS"
                          for t in node.targets)):
                found += [("triboverify.cli", name, where)
                          for name in ast.literal_eval(node.value)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.append((modules[node.value.id], node.attr,
                              f"{path.name}:{node.lineno}"))
    return found


def _resolves(module: str, name: str) -> bool:
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_library_names_resolve():
    names = _bench_library_names()
    pairs = {(module, name) for module, name, _ in names}
    # the scan reaches each kind of use: a name imported from the package,
    # an attribute read off an imported module, and a wrapped builder
    assert {("triboverify", "prop1_holds"),
            ("triboverify.gcdbound", "factor_sweep"),
            ("triboverify.cli", "norm_record")} <= pairs
    missing = [f"{where}: {module}.{name}" for module, name, where in names
               if not _resolves(module, name)]
    assert missing == []
