"""Workload definitions, seeded input draws and the metric catalogue.

Nothing here imports the library: run.py reads this module
without loading triboverify, and only the child processes it starts do.

Every workload is a closed loop with one caller: one operation at a time,
no ``--jobs`` flag, so a later change that makes parallelism the default
shows up without a new knob.  Sizes fit a 2-core shared machine.  Each
workload has a ``full`` size, which the benchmark measures, and a ``tiny``
size for the self-test.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = {
    # What a reader of the paper runs: `verify all --quick` through cli.run,
    # the north-star command at the budgets the ROADMAP also times.  The
    # full budgets take about 24 s, too long to repeat within one
    # measurement on a shared machine whose speed drifts over tens of
    # seconds; the quick run takes about 3 s and has every battery.
    # splitfield via gcdbound.norm_witness dominates it; expansion and
    # enclosure take a large share and record writing a few percent.  One
    # op = one emitted record.
    "verify-all": {"full": {}, "tiny": {}},
    # Re-verify a seeded file of genuine records of every kind through
    # read_records and one check_record call per record.  Measures the
    # records parse-and-validate path, where verify-all measures writing,
    # so a hardening change that slows re-checking shows.  Mostly prop1 and
    # norm pairs (z <= z_max, a few random y per z so seeds cost alike),
    # random triples, expansion records at a seeded triple, and one each of
    # lemma2, constants, growth, field and search-summary.  One op = one
    # record.
    "recheck": {
        "full": {"z_max": 300, "prop1_per_z": 30, "norm_per_z": 3,
                 "triples": 200, "t_max": 4},
        "tiny": {"z_max": 40, "prop1_per_z": 4, "norm_per_z": 1,
                 "triples": 10, "t_max": 2},
    },
    # Interval numerics only, no exact field arithmetic: factor_sweep at the
    # default 192 bits, a smaller factor_sweep at 1024 bits (precision is
    # the second dimension a dyadic core would move), and decay_report at a
    # seeded admissible triple from a narrow x band.  Nearly all the work is
    # enclosure, constants and expansion.  One op = one factor_bounds pair
    # or one expansion_error order, each timed by the benchmark.
    "deep-numerics": {
        "full": {"z_default": 80, "z_high": 48, "high_bits": 1024,
                 "order": 6},
        "tiny": {"z_default": 40, "z_high": 30, "high_bits": 1024,
                 "order": 6},
    },
    # The integer search path: search(z) without and with the gcd prune and
    # brute_force(w); all three must come back empty.  Only triples and
    # tribonacci do real work, so an enclosure or splitfield change should
    # leave it unchanged.  One op = one search call.
    "search": {
        "full": {"z_max": 200, "w_max": 100000},
        "tiny": {"z_max": 40, "w_max": 2000},
    },
}

# Triples for decay_report and the recheck expansion records: a narrow band
# of x so that every seed costs about the same.
TRIPLE_X = (19, 20, 21)
TRIPLE_STEP = (1, 2, 3, 4)
VERIFY_ALL_TRIPLE = (20, 25, 30)
MAX_REFERENCE_ORDER = 6

# The CPU of a shared machine changes speed by up to 1.6x, within seconds
# and for minutes, which moves raw timings of the same code by more than
# any bound worth having.  So every child samples its CPU's speed: it runs
# a fixed sub-millisecond kernel PROBE_SETUP_SAMPLES times right after
# set-up, and every PROBE_PERIOD_S during its timed section
# (child.SpeedProbe).  run.py multiplies each time by PROBE_REF_S over
# the harmonic mean of the kernel times sampled over that time (for one op:
# during it and within PROBE_WINDOW_S either side), so times read as
# seconds on a CPU where the kernel takes PROBE_REF_S, about its time on a
# 2-core shared x86-64 VM at its fast speed with Python 3.11.  The raw
# times stay in the run metadata.
PROBE_PERIOD_S = 0.05
PROBE_SETUP_SAMPLES = 20
PROBE_WINDOW_S = 0.25
PROBE_REF_S = 0.0005


def band_triples():
    """Every triple the seeded draws can pick."""
    return [(x, x + dy, x + dy + dz) for x in TRIPLE_X
            for dy in TRIPLE_STEP for dz in TRIPLE_STEP]


def draw_triple(rng: random.Random) -> tuple[int, int, int]:
    x = rng.choice(TRIPLE_X)
    y = x + rng.choice(TRIPLE_STEP)
    return x, y, y + rng.choice(TRIPLE_STEP)


def triple_key(xyz) -> str:
    """Key of a triple's reference intervals in reference.json."""
    return ",".join(map(str, xyz))


def rng_for(workload: str, seed: int) -> random.Random:
    """String seeding is stable across processes and Python runs."""
    return random.Random(f"{workload}:{seed}")


def deep_inputs(seed: int) -> dict:
    return {"triple": list(draw_triple(rng_for("deep-numerics", seed)))}


def factor_pairs(z_max: int) -> list[list[int]]:
    """The pairs factor_sweep must cover: 4 <= y < z <= z_max with
    4y > 3z + 8, in sweep order."""
    return [[y, z] for z in range(5, z_max + 1) for y in range(4, z)
            if 4 * y > 3 * z + 8]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metric catalogue; BENCHMARK.json lists the same names
# ---------------------------------------------------------------------------

END_TO_END = [
    # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

EXPANSION_ORDERS = range(MAX_REFERENCE_ORDER + 1)
RECORD_KINDS = ("triple", "prop1", "norm", "lemma2", "constants", "growth",
                "field", "expansion", "search-summary")

# Each layer's metrics, with the end-to-end metric they should move.
PER_LAYER = (
    # wall_s on deep-numerics strongly, on verify-all partly, not on search.
    # Counted, not spanned: there are over a million calls.
    [("enclosure.mul.calls", "count"), ("enclosure.cmul.calls", "count"),
     ("enclosure.rounded.calls", "count"), ("enclosure.sqrt.calls", "count"),
     ("enclosure.self_s", "s")]
    # wall_s on verify-all (prop1, growth) and deep-numerics.  build_s is
    # time in constants() calls that missed the cache; escalations counts
    # cmp_alpha_power calls that needed a second precision.
    + [("constants.cmp_alpha_power.calls", "count"),
       ("constants.cmp_alpha_power.self_s", "s"),
       ("constants.alpha_power.calls", "count"),
       ("constants.build_s", "s"), ("constants.max_bits", "bits"),
       ("constants.escalations", "count")]
    # wall_s on search, where brute_force spends most of its time here.
    + [("tribonacci.first_index.calls", "count"),
       ("tribonacci.first_index.self_s", "s"),
       ("tribonacci.values_upto.calls", "count"),
       ("tribonacci.values_upto.self_s", "s"),
       ("tribonacci.table_len", "count")]
    # wall_s and ops_per_s on verify-all and recheck; not deep-numerics or
    # search.  witness_prime_max is read from the returned certificates.
    + [("splitfield.norm3.calls", "count"), ("splitfield.norm3.self_s", "s"),
       ("splitfield.norm6.calls", "count"), ("splitfield.norm6.self_s", "s"),
       ("splitfield.to_field.self_s", "s"),
       ("splitfield.is_square_in_K.self_s", "s"),
       ("splitfield.witness_prime_max", "prime")]
    # verify-all, recheck and deep-numerics.
    + [("gcdbound.norm_witness.calls", "count"),
       ("gcdbound.norm_witness.self_s", "s"),
       ("gcdbound.prop1_holds.calls", "count"),
       ("gcdbound.prop1_holds.self_s", "s"),
       ("gcdbound.factor_bounds.calls", "count"),
       ("gcdbound.factor_bounds.self_s", "s"),
       ("gcdbound.factor_bounds.escalations", "count")]
    # deep-numerics and verify-all.  t<k>_s is the inclusive time of
    # expansion_error at order k; terms.t<k> the exact kept-term count.
    + [(f"expansion.expansion_error.t{k}_s", "s") for k in EXPANSION_ORDERS]
    + [(f"expansion.terms.t{k}", "count") for k in EXPANSION_ORDERS]
    + [("expansion.max_bits", "bits"),
       ("expansion.terms_cache.misses", "count")]
    # search.  uvw_from_xyz calls over admissible calls is the share of
    # attempts that survive divisibility.
    + [("triples.search.self_s", "s"), ("triples.brute_force.self_s", "s"),
       ("triples.admissible.calls", "count"),
       ("triples.uvw_from_xyz.calls", "count")]
    # wall_s on recheck and verify-all; peak_rss_mb on verify-all, which
    # holds every record in memory until it writes them.
    + [("records.emit_records.self_s", "s"), ("records.bytes_out", "B"),
       ("records.read_records.self_s", "s")]
    + [(f"records.check_record.{kind}.{stat}", unit)
       for kind in RECORD_KINDS
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    # argument parsing and verdict printing: time in no library span.
    + [("cli.run.self_s", "s")]
    # the trace itself: span count and traced minus untraced wall time.
    + [("trace.spans", "count"), ("trace.overhead_s", "s")]
)
