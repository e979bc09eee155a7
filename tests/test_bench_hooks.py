"""The benchmark finds every library name it uses: the tracer's hooks, the
names its scripts import, and the record builders it wraps, so a moved or
renamed function cannot silently zero a per-layer metric or break a
workload.  The quick ``verify all`` that the verify-all workload runs keeps
its record and stdout digests, and calls one wrapped builder per record.
The deep-numerics workload times one op per ``factor_bounds`` pair and per
``expansion_error`` order, read through their module globals."""

import ast
import hashlib
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from triboverify import cli, expansion, gcdbound

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


# quick ``verify all --out`` records (6210 lines) and its standard output
QUICK_RECORDS_MD5 = "3e116c41a97d7a4d61a44ac251a54e6b"
QUICK_STDOUT_MD5 = "f2cdc044529894bd39a6cb9cb6d07ca9"


def _record_builders():
    """The names in child.py's ``_RECORD_BUILDERS``."""
    tree = ast.parse((ROOT / "bench" / "child.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_RECORD_BUILDERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("child.py has no _RECORD_BUILDERS")


def test_quick_verify_all_digests_and_one_builder_call_per_record(
        tmp_path, capsys, monkeypatch):
    # the workload times each record as the gap between two calls of these
    # builders on ``cli``; a list builder counts once per record it returns
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += len(result) if isinstance(result, list) else 1
            return result
        return counted

    for name in _record_builders():
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    out = tmp_path / "all.jsonl"
    capsys.readouterr()
    assert cli.run(["verify", "all", "--quick", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    data = out.read_bytes()
    assert hashlib.md5(data).hexdigest() == QUICK_RECORDS_MD5
    assert hashlib.md5(stdout.encode()).hexdigest() == QUICK_STDOUT_MD5
    kinds = Counter(json.loads(line)["kind"] for line in data.splitlines())
    assert sum(kinds.values()) == sum(calls.values()) == 6210
    # each builder's records are of its own kind
    assert kinds == Counter({
        name.removesuffix("s").removesuffix("_record").replace("_", "-"): n
        for name, n in calls.items()})


def test_deep_numerics_ops_are_one_call_each(monkeypatch):
    # the workload rebinds these two names and times each call as one op:
    # factor_sweep must call factor_bounds once per regime pair, and
    # decay_report expansion_error once per order, both through the
    # module globals
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(gcdbound, "factor_bounds",
                        counting("factor_bounds", gcdbound.factor_bounds))
    monkeypatch.setattr(expansion, "expansion_error",
                        counting("expansion_error",
                                 expansion.expansion_error))
    # the workload's two sweeps at their full sizes: 612 pairs at the
    # default precision and 180 at 1024 bits
    for z_max, kwargs, pairs in ((80, {}, 612),
                                 (48, {"precision_bits": 1024}, 180)):
        calls.clear()
        sweep = gcdbound.factor_sweep(z_max, **kwargs)
        assert calls["factor_bounds"] == len(gcdbound.regime_pairs(z_max)) \
            == len(sweep.reports) == pairs
    report = expansion.decay_report(20, 25, 30, 6)
    assert calls["expansion_error"] == len(report.errors) == 7

