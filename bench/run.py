"""Benchmark entry point for triboverify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads and their reasons are in
workloads.py.  Every timed run is a fresh interpreter (child.py), because
users pay for filling the library's module-level caches on every CLI call.

--trace 0 starts timed runs one after another until the next would not fit
in S seconds, and reports the end-to-end metrics, each the median over
runs of one figure per run: set-up time, wall time, ops per second, peak
RSS, and the run's median and 95th percentile of per-op latency (the
highest with ten ops beyond it in a run of deep-numerics).  A run of every
workload takes a few seconds, so that one measurement holds several.
Every time is scaled by the CPU speed sampled during it (the comment above
workloads.PROBE_PERIOD_S says why and how).  Set-up is measured in at
least MIN_SETUP_SAMPLES processes; where the timed runs are fewer, extra
processes set up and exit.

--trace 1 makes one untraced and one traced run and reports the per-layer
metrics from the traced run's spans and counters (tracer.py), including the
tracing overhead: traced wall time minus untraced wall time.

Every output is checked against bench/reference.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it carries the run metadata.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 160


def _scale_ops(data: dict, default: float) -> list[float]:
    """Each op's duration scaled by the speed samples taken during it and
    within PROBE_WINDOW_S either side; ``default`` where there are none."""
    at, probe = data["probe_at"], data["probe_s"]
    window = workloads.PROBE_WINDOW_S
    out = []
    for end, d in zip(data["op_end"], data["op_s"]):
        lo = bisect.bisect_left(at, end - d - window)
        hi = bisect.bisect_right(at, end + window)
        near = probe[lo:hi]
        scale = (workloads.PROBE_REF_S / statistics.harmonic_mean(near)
                 if near else default)
        out.append(d * scale)
    return out


class Run:
    """The checkout, the scratch directory of this run and its children."""

    def __init__(self, root: str, workload: str, size: str, seed: int):
        self.root = root
        self.workload = workload
        self.size = size
        self.seed = seed
        self.work = os.path.join(root, ".bench_work",
                                 f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.input: str | None = None
        self.crashed = 0
        self._n = 0
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def _command(self, *args: str) -> list[str]:
        return [sys.executable, os.path.join(HERE, "child.py"), self.workload,
                "--size", self.size, *args]

    def child(self, *extra: str) -> dict | None:
        """Start one child and wait for it; its result with setup_s added,
        or None when it failed."""
        self._n += 1
        result = os.path.join(self.work, f"result-{self._n}.json")
        errlog = os.path.join(self.work, f"stderr-{self._n}.txt")
        cmd = self._command("--result", result, "--work", self.work, *extra)
        if self.input:
            cmd += ["--input", self.input]
        with open(errlog, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        ended = time.monotonic()
        if code != 0 or not os.path.exists(result):
            self.crashed += 1
            with open(errlog, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"child {' '.join(extra)} failed ({code}):\n{tail}",
                  file=sys.stderr)
            return None
        with open(result, encoding="utf-8") as fh:
            data = json.load(fh)
        data["elapsed_s"] = ended - spawned
        ref = workloads.PROBE_REF_S
        data["setup_s"] = ((data["timed_start"] - spawned) * ref
                           / statistics.harmonic_mean(data["setup_probe_s"]))
        if "wall_s" in data:
            # a run shorter than the sampling period is scaled by its
            # set-up samples
            scale = ref / statistics.harmonic_mean(data["probe_s"]
                                                   or data["setup_probe_s"])
            data["scale"] = scale
            data["raw_wall_s"] = data["wall_s"]
            data["wall_s"] *= scale
            data["op_s"] = _scale_ops(data, scale)
        return data

    def prepare(self) -> None:
        """Write the seeded input, then set up once untimed so that every
        timed process finds compiled bytecode."""
        if self.workload == "recheck":
            self.input = os.path.join(self.work, "recheck.jsonl")
            subprocess.run(self._command("--gen", str(self.seed),
                                         "--input", self.input),
                           cwd=self.root, env=self.env, check=True,
                           stdout=subprocess.DEVNULL,
                           timeout=CHILD_TIMEOUT_S)
        elif self.workload == "deep-numerics":
            self.input = os.path.join(self.work, "deep.json")
            with open(self.input, "w", encoding="utf-8") as fh:
                json.dump(workloads.deep_inputs(self.seed), fh)
        self.child("--setup-only")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_metrics(child: dict) -> dict:
    """The end-to-end figures of one timed child (setup_s aside)."""
    op_ms = [t * 1000.0 for t in child["op_s"]]
    return {
        "wall_s": child["wall_s"],
        "ops_per_s": child["ops"] / child["wall_s"],
        "op_p50_ms": statistics.median(op_ms),
        "op_p95_ms": _percentile(op_ms, 95),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def measure(run: Run, seconds: int):
    """Timed children until the next would overrun; (metrics, samples,
    details, children).

    Each metric is the median over children of that child's own figure.
    """
    children = []
    started = time.monotonic()
    while True:
        child = run.child()
        if child is None:
            break
        children.append(child)
        elapsed = time.monotonic() - started
        per_child = statistics.median([c["elapsed_s"] for c in children])
        if elapsed + per_child > seconds:
            break
    if not children:
        return None, {}, {}, children
    setups = [c["setup_s"] for c in children]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = run.child("--setup-only")
        if probe is None:
            break
        setups.append(probe["setup_s"])
    units = [unit_metrics(c) for c in children]
    metrics = {"setup_s": statistics.median(setups)}
    for name in units[0]:
        metrics[name] = statistics.median([u[name] for u in units])
    n = len(children)
    samples = {name: n for name in metrics}
    samples["setup_s"] = len(setups)
    samples["ops_per_run"] = [len(c["op_s"]) for c in children]
    details = {"setup_s_per_run": setups,
               "raw_wall_s_per_run": [c["raw_wall_s"] for c in children],
               "scale_per_run": [c["scale"] for c in children],
               "cpu_s_per_run": [c["cpu_s"] for c in children]}
    for name in units[0]:
        details[f"{name}_per_run"] = [u[name] for u in units]
    return metrics, samples, details, children


def layer_metrics(header: dict, spans: dict) -> tuple[dict, dict]:
    """Per-layer metrics from one traced child, plus the figures that have
    no fixed name (precision per calling function, witness primes)."""
    summary = tracer.summarize(header, spans)
    counts, figures = header["counts"], header["figures"]

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    m = {
        "enclosure.mul.calls": counts.get("enclosure.mul", 0),
        "enclosure.cmul.calls": counts.get("enclosure.cmul", 0),
        "enclosure.rounded.calls": counts.get("enclosure.rounded", 0),
        "enclosure.sqrt.calls": counts.get("enclosure.sqrt", 0),
        "enclosure.self_s": counts.get("enclosure.time", 0.0),
        "constants.alpha_power.calls": counts.get("constants.alpha_power", 0),
        "constants.build_s": counts.get("constants.build_s", 0.0),
        "constants.max_bits": max([s["max_bits"] for s in summary.values()]
                                  + [counts.get("root.max_bits", 0)]),
        "constants.escalations": stat("constants.cmp_alpha_power",
                                      "escalations"),
        "tribonacci.table_len": figures["table_len"],
        "splitfield.witness_prime_max": max(
            [q for pair in figures["witness_primes"] for q in pair if q]
            or [0]),
        "gcdbound.factor_bounds.escalations": stat("gcdbound.factor_bounds",
                                                   "escalations"),
        "triples.admissible.calls": counts.get("triples.admissible", 0),
        "triples.uvw_from_xyz.calls": counts.get("triples.uvw_from_xyz", 0),
        "records.bytes_out": counts.get("records.bytes_out", 0),
    }
    for name in ("constants.cmp_alpha_power", "tribonacci.first_index",
                 "tribonacci.values_upto", "splitfield.norm3",
                 "splitfield.norm6", "gcdbound.norm_witness",
                 "gcdbound.prop1_holds", "gcdbound.factor_bounds"):
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.self_s"] = stat(name, "self_s")
    for name in ("splitfield.to_field", "splitfield.is_square_in_K",
                 "triples.search", "triples.brute_force",
                 "records.emit_records", "records.read_records", "cli.run"):
        m[f"{name}.self_s"] = stat(name, "self_s")
    for kind in workloads.RECORD_KINDS:
        name = f"records.check_record.{kind}"
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.self_s"] = stat(name, "self_s")
    terms = figures["expansion_terms"]
    for k in workloads.EXPANSION_ORDERS:
        m[f"expansion.expansion_error.t{k}_s"] = stat(
            f"expansion.expansion_error.t{k}", "total_s")
        m[f"expansion.terms.t{k}"] = terms.get(str(k), 0)
    expansion_spans = [s for name, s in summary.items()
                       if name.startswith("expansion.expansion_error.")]
    m["expansion.max_bits"] = max([s["max_bits"] for s in expansion_spans]
                                  or [0])
    cache = figures.get("expansion_terms_cache", {})
    m["expansion.terms_cache.misses"] = cache.get("misses", 0)
    m["trace.spans"] = header["count"]
    details = {
        "max_bits_by_caller": {name: s["max_bits"]
                               for name, s in sorted(summary.items())
                               if s["max_bits"]},
        "escalations_by_caller": {name: s["escalations"]
                                  for name, s in sorted(summary.items())
                                  if s["escalations"]},
        "witness_primes": figures["witness_primes"],
        "expansion_terms_cache": cache,
        "missing_hooks": header["missing"],
    }
    return m, details


def measure_traced(run: Run):
    """One untraced and one traced child; (metrics, details, children)."""
    base = run.child()
    spans_path = os.path.join(run.root, ".bench_work",
                              f"trace-{run.workload}-{run.seed}.spans")
    traced = run.child("--trace", spans_path)
    children = [c for c in (base, traced) if c is not None]
    if base is None or traced is None:
        return None, {}, children
    header, spans = tracer.read_spans(spans_path)
    metrics, details = layer_metrics(header, spans)
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    details["trace"] = {
        "untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
        "overhead_pct": 100.0 * metrics["trace.overhead_s"] / base["wall_s"],
        "spans_file": os.path.relpath(spans_path, run.root)}
    return metrics, details, children


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "triboverify",
                                              "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "triboverify",
                                       "__init__.py")):
        print("error: no src/triboverify here; run from the root of a "
              "triboverify checkout", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.size, args.seed)
    try:
        run.prepare()
        if args.trace:
            metrics, details, children = measure_traced(run)
            units = dict(workloads.PER_LAYER)
            samples = {"children": len(children)}
        else:
            metrics, samples, details, children = measure(run, args.seconds)
            units = {name: unit for name, unit, _b, _w in
                     workloads.END_TO_END}
    finally:
        run.close()

    attempted = sum(c["ops"] for c in children) + run.crashed
    failed = sum(c["failed"] for c in children) + run.crashed
    for c in children:
        for problem in c["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no run completed", file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{args.workload:>13} {name:<40} {metrics[name]:>16.6g} "
              f"{unit}")
    print(f"{args.workload:>13} {'fail_ratio':<40} "
          f"{failed / max(attempted, 1):>16.6g} ({failed}/{attempted})")
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": _commit(root), "source_sha256": _source_digest(root),
        "samples": samples, "details": details,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
