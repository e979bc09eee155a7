"""Regenerate bench/reference.json, the frozen outputs the benchmark checks
against.  Run it only when the benchmark's own workloads change, never to
make a failing program pass:

    PYTHONPATH=src python3 bench/freeze.py

It takes a few minutes on one core.  Reference intervals are the computed
enclosures rounded outward to 64 significant bits.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from child import verify_all_digest

from triboverify import cli, decay_report
from triboverify.enclosure import round_down, round_up

REF_BITS = 64


def _interval(enc) -> list[str]:
    return [str(round_down(enc.lo, REF_BITS)), str(round_up(enc.hi, REF_BITS))]


def main() -> int:
    work = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(work, exist_ok=True)
    ref: dict = {"expansion": {}}
    out = os.path.join(work, "freeze-verify-all.jsonl")
    if cli.run(["verify", "all", "--quick", "--out", out]) != 0:
        print("verify all --quick failed", file=sys.stderr)
        return 1
    digest, n, _ = verify_all_digest(out)
    os.unlink(out)
    ref["verify-all"] = {"digest": digest, "records": n}
    triples = [workloads.VERIFY_ALL_TRIPLE] + workloads.band_triples()
    for i, xyz in enumerate(triples, 1):
        rep = decay_report(*xyz, workloads.MAX_REFERENCE_ORDER)
        if not rep.all_ok:
            print(f"decay_report{xyz} fails", file=sys.stderr)
            return 1
        ref["expansion"][workloads.triple_key(xyz)] = [
            _interval(e) for e in rep.errors]
        print(f"{i}/{len(triples)} {xyz}", file=sys.stderr, flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
