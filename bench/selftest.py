"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

It takes about two minutes and exits non-zero on the first failed check.
It checks that BENCHMARK.json matches the metric catalogue, that seeded
inputs are reproducible and cost alike, that a tiny traced run of every
workload is correct and reports every per-layer metric non-zero somewhere
(so a renamed function fails here instead of zeroing a layer), and that
the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work", "selftest")

# Event counts that are zero at every size today: no cmp_alpha_power or
# factor_bounds call needs a second precision, and no index triple up to
# z = 240 survives the divisibility filter.  Their hooks are still checked
# through missing_hooks and the other metrics of the same functions.
ZERO_TODAY = {"constants.escalations", "gcdbound.factor_bounds.escalations",
              "triples.uvw_from_xyz.calls"}

# Layers a workload must not reach at all.
UNREACHED = {
    "search": ("splitfield.", "gcdbound.", "expansion.expansion_error."),
    "deep-numerics": ("splitfield.", "records.", "triples."),
}


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_catalogue() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    check([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")
    check([(m["name"], m["unit"], m["better"], m["bound"])
           for m in doc["end_to_end"]] == [tuple(m) for m in
                                           workloads.END_TO_END],
          "BENCHMARK.json end_to_end matches workloads.END_TO_END")
    check([(m["name"], m["unit"]) for m in doc["per_layer"]]
          == workloads.PER_LAYER,
          "BENCHMARK.json per_layer matches workloads.PER_LAYER")


def _gen(seed: int) -> bytes:
    path = os.path.join(WORK, f"recheck-{seed}.jsonl")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                    "recheck", "--gen", str(seed), "--input", path],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=300)
    with open(path, "rb") as fh:
        return fh.read()


def _kinds(data: bytes) -> Counter:
    return Counter(json.loads(line)["kind"] for line in data.splitlines())


def test_seeded_inputs() -> None:
    first, again, other = _gen(1), _gen(1), _gen(2)
    check(first == again, "recheck: the same seed gives a byte-identical file")
    check(first != other, "recheck: two seeds give different files")
    check(_kinds(first) == _kinds(other),
          "recheck: two seeds give the same record count per kind")
    check(workloads.deep_inputs(1) == workloads.deep_inputs(1)
          and tuple(workloads.deep_inputs(1)["triple"])
          in workloads.band_triples(),
          "deep-numerics: the seeded triple is reproducible and in the band")
    for name in ("recheck", "deep-numerics"):
        walls = []
        for seed in (1, 2):
            code, lines = bench("--workload", name, "--seed", str(seed),
                                "--seconds", "1")
            meta, result = result_of(lines)
            check(code == 0 and result["correct"],
                  f"{name} seed {seed}: full-size run is correct")
            walls.append(result["metrics"]["wall_s"]["value"])
        ratio = max(walls) / min(walls)
        check(ratio < 1.3, f"{name}: seeds 1 and 2 cost alike "
              f"(wall {walls[0]:.2f} s vs {walls[1]:.2f} s)")


def test_traced_tiny() -> None:
    seen: dict[str, float] = {}
    for name in workloads.WORKLOADS:
        code, lines = bench("--workload", name, "--seed", "1", "--seconds",
                            "1", "--trace", "1", "--size", "tiny")
        meta, result = result_of(lines)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{name}: tiny traced run is correct")
        missing = meta["details"]["missing_hooks"]
        check(not missing, f"{name}: every hook installed {missing}")
        metrics = result["metrics"]
        check(set(metrics) == {n for n, _u in workloads.PER_LAYER},
              f"{name}: traced run reports exactly the per-layer metrics")
        for metric, entry in metrics.items():
            seen[metric] = seen.get(metric, 0) or entry["value"]
        for prefix in UNREACHED.get(name, ()):
            reached = [m for m, e in metrics.items()
                       if m.startswith(prefix) and e["value"]]
            check(not reached, f"{name}: never reaches {prefix}* {reached}")
    zero = sorted(m for m, v in seen.items() if not v and m not in ZERO_TODAY)
    check(not zero, f"every per-layer metric is non-zero somewhere {zero}")


def test_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "search", "--seed", "1", "--seconds",
                        "1", cwd=bare)
    check(code != 0 and not any(line.startswith('{"correct"')
                                for line in lines),
          "without the library the benchmark fails and prints no result")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        test_catalogue()
        test_bare_directory()
        test_traced_tiny()
        test_seeded_inputs()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
