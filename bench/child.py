"""One timed run of one workload in a fresh interpreter.

Started by run.py, never imported by it.  The child imports the library,
loads its input, notes the start of the timed section on the system-wide
monotonic clock (so run.py can measure set-up from process start),
samples the CPU's speed, runs the workload while sampling its speed
(SpeedProbe), checks the outputs against the frozen references outside the
timed section, and writes a JSON result file.

    python3 bench/child.py WORKLOAD --size full --input IN --result OUT
        [--trace SPANS] [--setup-only] [--work DIR]
    python3 bench/child.py recheck --size full --gen SEED --input OUT

The library is found through PYTHONPATH, which run.py points at src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction
from time import perf_counter

import triboverify  # noqa: F401  (set-up cost: the whole package)
from triboverify import cli, expansion, gcdbound, records

import workloads
from tracer import Tracer, rebind


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def step(self, k: int) -> int:
        self.v = (self.v * 31 + k) % 65521
        return self.v


def _probe_kernel() -> None:
    """A fixed sub-millisecond mix of what the library's hot paths do:
    Fraction sums with growing denominators, a small-int loop with dict
    stores, Fraction bookkeeping on small values, and method calls that
    build a list."""
    total = Fraction(0)
    for i in range(1, 24):
        total += Fraction(1, i)
    a, b, c = 0, 0, 1
    seen = {}
    for i in range(400):
        a, b, c = b, c, (a + b + c) % 1000003
        seen[c & 1023] = i
    acc = Fraction(0)
    for i in range(1, 50):
        acc = acc + Fraction(i % 17, 1 + i % 13)
    cell, odd = _Cell(1), []
    for i in range(400):
        if cell.step(i) & 1:
            odd.append((i, cell.v))


class SpeedProbe:
    """Samples the speed of the CPU this process runs on.

    While started, SIGALRM every PROBE_PERIOD_S runs the kernel in the main
    thread, between two bytecodes of whatever runs, and records the thread
    CPU time it took.  A shared CPU changes speed by up to 1.6x within
    seconds, so run.py divides every time by the mean speed sampled
    through that very run (workloads.py).  ``spent`` is the wall time the
    samples took; clock() leaves it out.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """perf_counter() less the time taken by speed samples."""
        return perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        self.stamps.append(self.clock())
        t0, c0 = perf_counter(), time.thread_time()
        _probe_kernel()
        self.samples.append(time.thread_time() - c0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        period = workloads.PROBE_PERIOD_S
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class OpClock:
    """Per-op durations taken by wrapping a module-level function binding.

    ``count`` gives the number of ops a call produced (a list builder yields
    several records); the gap since the previous stamp is split evenly over
    them.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stamps: list[tuple[float, int]] = []
        self.t0 = clock()

    def wrap(self, fn, count=lambda result: 1):
        stamps, clock = self.stamps, self.clock

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.append((clock(), count(result)))
            return result

        return wrapper

    def gaps(self) -> list[tuple[float, float]]:
        out, prev = [], self.t0
        for t, n in self.stamps:
            if n:
                out.extend([(t, (t - prev) / n)] * n)
            prev = t
        return out


def timing(fn, times: list[tuple[float, float]], clock):
    """``fn`` with each call's (end, duration) by ``clock`` appended to
    ``times``."""
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            times.append((t1, t1 - t0))

    return wrapper


def _intersects(lo: str, hi: str, ref: list[str]) -> bool:
    return (Fraction(lo) <= Fraction(ref[1])
            and Fraction(ref[0]) <= Fraction(hi))


# ---------------------------------------------------------------------------
# recheck input generation
# ---------------------------------------------------------------------------

def gen_recheck(seed: int, p: dict, path: str) -> None:
    """Write genuine records of every kind, drawn from the seed."""
    from triboverify import (ALPHA_C, CubicElement, decay_report,
                             field_identity_report, gcd_shifted,
                             is_square_in_K, norm_witness, prop1_holds,
                             search, verify_growth, verify_numeric_window)
    from triboverify.records import (constants_record, emit_records,
                                     expansion_records,
                                     field_record, growth_record,
                                     lemma2_record, membership_triple_record,
                                     norm_record, prop1_record,
                                     search_summary_record)
    rng = workloads.rng_for("recheck", seed)
    a = CubicElement((-1, -2, 3)).inv()
    lemma2_cases = (("a", a), ("alpha*a", ALPHA_C * a),
                    ("alpha^2", ALPHA_C * ALPHA_C),
                    ("-11", CubicElement((-11, 0, 0))))
    label, element = rng.choice(lemma2_cases)
    recs = [
        constants_record(verify_numeric_window(rng.choice((96, 128, 160,
                                                           192)))),
        growth_record(verify_growth(rng.randrange(400, 601))),
        field_record(field_identity_report()),
        lemma2_record(label, is_square_in_K(element)),
    ]
    z_max = p["z_max"]
    for z in range(5, z_max + 1):
        for y in sorted(rng.sample(range(4, z), min(p["prop1_per_z"], z - 4))):
            recs.append(prop1_record(y, z, gcd_shifted(y, z),
                                     prop1_holds(y, z)))
    for z in range(6, z_max + 1):
        for y in sorted(rng.sample(range(5, z), min(p["norm_per_z"], z - 5))):
            recs.append(norm_record(norm_witness(y, z)))
    z_search, prune = rng.randrange(50, 61), rng.random() < 0.5
    recs.append(search_summary_record("search", len(search(z_search, prune)),
                                      z_max=z_search, use_gcd_prune=prune))
    for _ in range(p["triples"]):
        recs.append(membership_triple_record(
            *sorted(rng.sample(range(1, 10 ** 6), 3))))
    x, y, z = workloads.draw_triple(rng)
    recs.extend(expansion_records(decay_report(x, y, z, p["t_max"])))
    emit_records(path, recs)


# ---------------------------------------------------------------------------
# workloads: each returns (timed, check); check(result of timed) gives
# (ops attempted, ops failed, problems)
# ---------------------------------------------------------------------------

_RECORD_BUILDERS = ("prop1_record", "norm_record", "constants_record",
                    "growth_record", "field_record", "lemma2_record",
                    "expansion_records", "search_summary_record",
                    "triple_record")


def verify_all_digest(path: str):
    """sha256 of the record file with expansion err_lo/err_hi left out, the
    record count, and the (t, err_lo, err_hi) of every expansion record."""
    h = hashlib.sha256()
    n, intervals = 0, []
    with open(path, "rb") as fh:
        for line in fh:
            n += 1
            if line.startswith(b'{"schema":1,"kind":"expansion"'):
                data = json.loads(line)
                intervals.append((data["t"], data.pop("err_lo"),
                                  data.pop("err_hi")))
                line = json.dumps(data, separators=(",", ":")).encode() + b"\n"
            h.update(line)
    return h.hexdigest(), n, intervals


def run_verify_all(ref: dict, work: str,
                   times: list[tuple[float, float]] | None, clock):
    """Per-record latency is the gap between consecutive record builds in
    the CLI, since the work for a record precedes its builder call."""
    expected = ref["verify-all"]
    out = os.path.join(work, "verify-all.jsonl")
    argv = ["verify", "all", "--quick", "--out", out]
    gaps = OpClock(clock) if times is not None else None
    if gaps is not None:
        for name in _RECORD_BUILDERS:
            fn = getattr(cli, name)
            setattr(cli, name, gaps.wrap(
                fn, (lambda r: len(r)) if name == "expansion_records"
                else (lambda r: 1)))

    def timed():
        if gaps is not None:
            gaps.t0 = clock()
        return cli.run(argv)

    def check(code):
        if gaps is not None:
            times.extend(gaps.gaps())
        if code != 0:
            return expected["records"], expected["records"], [
                f"verify all exited {code}"]
        digest, n, intervals = verify_all_digest(out)
        os.unlink(out)
        if digest != expected["digest"] or n != expected["records"]:
            return n, n, [f"record digest {digest[:16]} ({n} records) != "
                          f"reference {expected['digest'][:16]} "
                          f"({expected['records']} records)"]
        refs = ref["expansion"][
            workloads.triple_key(workloads.VERIFY_ALL_TRIPLE)]
        bad = [t for t, lo, hi in intervals
               if not _intersects(lo, hi, refs[t])]
        return n, len(bad), [f"expansion t={t} misses the reference"
                             for t in bad]

    return timed, check


def run_recheck(path: str, times: list[tuple[float, float]], clock):
    results: list[tuple[bool, str]] = []

    def timed():
        for rec in records.read_records(path):
            t0 = clock()
            try:
                results.append(records.check_record(rec))
            except Exception as exc:  # an op that raises counts as failed
                results.append((False, f"{rec.kind}: {exc!r}"))
            t1 = clock()
            times.append((t1, t1 - t0))

    def check(_):
        bad = [msg for ok, msg in results if not ok]
        return len(results), len(bad), bad[:5]

    return timed, check


def run_deep(p: dict, ref: dict, triple: list[int],
             times: list[tuple[float, float]] | None, clock):
    if times is not None:
        rebind(gcdbound.factor_bounds,
               timing(gcdbound.factor_bounds, times, clock))
        rebind(expansion.expansion_error,
               timing(expansion.expansion_error, times, clock))
    sweeps = (("default", p["z_default"], {}),
              ("high", p["z_high"], {"precision_bits": p["high_bits"]}))
    out: dict = {}

    def timed():
        for label, z_max, kw in sweeps:
            out[label] = gcdbound.factor_sweep(z_max, **kw)
        out["decay"] = expansion.decay_report(*triple, p["order"])

    def check(_):
        ops = failed = 0
        problems = []
        for label, z_max, _kw in sweeps:
            pairs = workloads.factor_pairs(z_max)
            ops += len(pairs)
            rep = out.get(label)
            if rep is None:
                failed += len(pairs)
                continue
            got = [[r.y, r.z] for r in rep.reports]
            if got != pairs:
                failed += len(pairs)
                problems.append(f"factor_sweep {label}: pair list differs")
                continue
            bad = [(r.y, r.z) for r in rep.reports if not r.ok]
            failed += len(bad)
            problems += [f"factor_bounds{yz} failed" for yz in bad[:5]]
        orders = p["order"] + 1
        ops += orders
        decay = out.get("decay")
        refs = ref["expansion"][workloads.triple_key(triple)]
        if decay is None:
            return ops, failed + orders, problems + ["decay_report missing"]
        for t, err in enumerate(decay.errors):
            if not _intersects(str(err.lo), str(err.hi), refs[t]):
                failed += 1
                problems.append(f"expansion t={t} misses the reference")
        if not decay.all_ok:
            failed += 1
            problems.append("decay_report verdicts fail")
        return ops, failed, problems

    return timed, check


def run_search(p: dict, times: list[tuple[float, float]], clock):
    from triboverify import brute_force, search
    calls = ((search, (p["z_max"], False)), (search, (p["z_max"], True)),
             (brute_force, (p["w_max"],)))
    found: list = []

    def timed():
        for fn, args in calls:
            found.append(timing(fn, times, clock)(*args))

    def check(_):
        problems = [f"search call {i} returned {len(f)} candidate(s)"
                    for i, f in enumerate(found) if f]
        if found[:1] != found[1:2]:
            problems.append("search with and without the prune disagree")
        failed = sum(1 for f in found if f) + len(calls) - len(found)
        return len(calls), failed, problems

    return timed, check


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--input")
    ap.add_argument("--result")
    ap.add_argument("--work", default=".")
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--gen", type=int)
    args = ap.parse_args(argv)
    p = workloads.WORKLOADS[args.workload][args.size]

    if args.gen is not None:
        gen_recheck(args.gen, p, args.input)
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ref = workloads.load_reference()
    probe = SpeedProbe()
    clock = probe.clock
    times: list[tuple[float, float]] = []
    # per-op timing wrappers stay out of a traced run
    op_times = None if tracer else times
    if args.workload == "verify-all":
        timed, check = run_verify_all(ref, args.work, op_times, clock)
    elif args.workload == "recheck":
        timed, check = run_recheck(args.input, times, clock)
    elif args.workload == "deep-numerics":
        with open(args.input, encoding="utf-8") as fh:
            triple = json.load(fh)["triple"]
        timed, check = run_deep(p, ref, triple, op_times, clock)
    else:
        timed, check = run_search(p, times, clock)

    timed_start = time.monotonic()
    for _ in range(workloads.PROBE_SETUP_SAMPLES):
        probe.sample()
    setup_probe = probe.samples[:]
    if args.setup_only:
        _write(args.result, {"timed_start": timed_start,
                             "setup_probe_s": setup_probe})
        return 0
    probe.stamps.clear()
    probe.samples.clear()
    probe.start()
    t0, cpu0 = clock(), time.process_time()
    value, error = None, None
    try:
        value = timed()
    except Exception as exc:  # the parts that did not finish count as failed
        error = f"{args.workload} raised {exc!r}"
    wall, cpu = clock() - t0, time.process_time() - cpu0
    probe.stop()
    ops, failed, problems = check(value)
    if error is not None:
        ops, failed, problems = max(ops, 1), max(failed, 1), [error] + problems
    _write(args.result, {
        "timed_start": timed_start,
        "setup_probe_s": setup_probe,
        "probe_s": probe.samples,
        "wall_s": wall,
        "ops": ops,
        "failed": failed,
        "problems": problems,
        "op_s": [d for _end, d in times],
        "op_end": [end for end, _d in times],
        "probe_at": probe.stamps,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if tracer is not None:
        tracer.write(args.trace)
    return 0


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
