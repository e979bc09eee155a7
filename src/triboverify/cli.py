"""Command-line entry point.

Subcommands: ``gen`` prints sequence values, ``member`` answers membership
queries, ``search``/``brute`` hunt for triples two independent ways,
``verify`` runs the certified check batteries, and ``check-records``
re-validates a previously written record file.

Exit codes: 0 all checks passed (or searches came back empty as expected);
1 a check failed or a triple was found; 2 usage or configuration error;
3 a precision or certificate search hit its configured cap without a
conclusion.

Configuration resolves flags over environment over defaults; every field
reads TRIBOVERIFY_<NAME> from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

from .constants import (DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION,
                        verify_growth, verify_numeric_window)
from .enclosure import PrecisionFailure
from .expansion import decay_report
from .gcdbound import (IntegrityError, factor_bounds, norm_witnesses,
                       prop1_results, regime_sample)
from .records import (CONSTANTS_PRECISION_CAP, EXPANSION_INDEX_CAP,
                      GROWTH_N_MAX_CAP, LEMMA2_CASES, PAIR_Z_MAX_CAP,
                      RecordFormatError, check_record, constants_record,
                      emit_records, expansion_records, field_record,
                      growth_record, lemma2_record, norm_record,
                      prop1_record, read_records, search_summary_record,
                      triple_record)
from .splitfield import (DEFAULT_DENOMINATOR_BOUND,
                         DEFAULT_WITNESS_PRIME_BOUND,
                         InconclusiveSquareTest, field_identity_report,
                         is_square_in_K)
from .tribonacci import default_table, is_tribonacci
from .triples import brute_force, search


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


_INT_FIELDS = ("precision_bits", "max_precision_bits",
               "witness_prime_bound", "denominator_bound")


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = DEFAULT_PRECISION
    max_precision_bits: int = MAX_PRECISION
    witness_prime_bound: int = DEFAULT_WITNESS_PRIME_BOUND
    denominator_bound: int = DEFAULT_DENOMINATOR_BOUND
    out: str | None = None

    def validate(self) -> "RunConfig":
        for name in _INT_FIELDS:
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.precision_bits < MIN_PRECISION:
            raise UsageError(f"precision_bits must be >= {MIN_PRECISION}")
        if self.precision_bits > self.max_precision_bits:
            raise UsageError("precision_bits exceeds max_precision_bits")
        return self


def load_config(args: argparse.Namespace, environ=None) -> RunConfig:
    """Flags override environment overrides defaults."""
    env = os.environ if environ is None else environ
    config = RunConfig()
    for name in _INT_FIELDS:
        raw = env.get("TRIBOVERIFY_" + name.upper())
        if raw is not None:
            try:
                config = replace(config, **{name: int(raw)})
            except ValueError:
                raise UsageError(
                    f"TRIBOVERIFY_{name.upper()}={raw!r} is not an integer")
    if env.get("TRIBOVERIFY_OUT"):
        config = replace(config, out=env["TRIBOVERIFY_OUT"])
    for name in _INT_FIELDS + ("out",):
        value = getattr(args, name, None)
        if value is not None:
            config = replace(config, **{name: value})
    return config.validate()


def _config_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--precision-bits", type=int, dest="precision_bits")
    p.add_argument("--max-precision-bits", type=int,
                   dest="max_precision_bits")
    p.add_argument("--witness-prime-bound", type=int,
                   dest="witness_prime_bound")
    p.add_argument("--denominator-bound", type=int, dest="denominator_bound")
    p.add_argument("--out", dest="out", help="write JSONL records here")
    return p


def build_parser() -> argparse.ArgumentParser:
    cfg = _config_parent()
    parser = argparse.ArgumentParser(
        prog="triboverify",
        description="desk-scale verification of the finiteness argument "
                    "for Tribonacci Diophantine triples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[cfg], help="print sequence values")
    p.add_argument("--max-index", type=int, required=True)

    p = sub.add_parser("member", parents=[cfg],
                       help="membership queries with certified index windows")
    p.add_argument("values", type=int, nargs="+")

    p = sub.add_parser("search", parents=[cfg],
                       help="index-side triple search")
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--use-gcd-prune", action="store_true")

    p = sub.add_parser("brute", parents=[cfg],
                       help="value-side triple search")
    p.add_argument("--w-max", type=int, required=True)

    ver = sub.add_parser("verify", help="certified check batteries")
    vsub = ver.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("prop1", parents=[cfg],
                        help="gcd(T_y-1, T_z-1) < alpha^(3z/4) sweep")
    p.add_argument("--z-max", type=int, required=True)

    p = vsub.add_parser("norms", parents=[cfg],
                        help="exact norm certificates plus sampled "
                             "embedding bounds")
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=25)

    vsub.add_parser("constants", parents=[cfg],
                    help="decimal windows for the cubic's constants")

    p = vsub.add_parser("growth", parents=[cfg],
                        help="two-sided growth bounds for T_n")
    p.add_argument("--n-max", type=int, required=True)

    vsub.add_parser("field", parents=[cfg],
                    help="exact splitting-field identities")

    vsub.add_parser("lemma2", parents=[cfg],
                    help="non-squareness certificates for a and alpha*a")

    p = vsub.add_parser("expansion", parents=[cfg],
                        help="truncation error decay")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--t-max", type=int, default=6)

    p = vsub.add_parser("all", parents=[cfg],
                        help="every battery at standard budgets")
    p.add_argument("--quick", action="store_true",
                   help="reduced sweeps (z <= 100, n <= 500)")

    p = sub.add_parser("check-records", parents=[cfg],
                       help="re-validate a JSONL record file")
    p.add_argument("path")
    return parser


def _write(config: RunConfig, records) -> None:
    if config.out:
        emit_records(config.out, records)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    tail = f"  {detail}" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# plain subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args, config: RunConfig) -> int:
    if args.max_index < 0:
        raise UsageError("--max-index must be >= 0")
    table = default_table()
    for n in range(args.max_index + 1):
        print(f"{n} {table.value(n)}")
    return 0


def _cmd_member(args, config: RunConfig) -> int:
    for value in args.values:
        if value < 0:
            raise UsageError("membership queries take nonnegative values")
        idx = is_tribonacci(value)
        if idx is None:
            print(f"{value} -")
        else:
            print(f"{value} {idx}")
    return 0


def _cmd_search(args, config: RunConfig) -> int:
    if args.z_max < 7:
        raise UsageError("--z-max must be >= 7")
    found = search(args.z_max, args.use_gcd_prune)
    records = [search_summary_record("search", len(found),
                                     z_max=args.z_max,
                                     use_gcd_prune=args.use_gcd_prune)]
    print(f"search z <= {args.z_max} prune={args.use_gcd_prune}: "
          f"{len(found)} candidate(s)")
    for c in found:
        rec = triple_record(c.u, c.v, c.w, c.x, c.y, c.z, True)
        records.append(rec)
        print(rec.to_line())
    _write(config, records)
    return 1 if found else 0


def _cmd_brute(args, config: RunConfig) -> int:
    if args.w_max < 3:
        raise UsageError("--w-max must be >= 3")
    found = brute_force(args.w_max)
    records = [search_summary_record("brute", len(found), w_max=args.w_max)]
    print(f"brute w <= {args.w_max}: {len(found)} candidate(s)")
    for c in found:
        rec = triple_record(c.u, c.v, c.w, c.x, c.y, c.z, True)
        records.append(rec)
        print(rec.to_line())
    _write(config, records)
    return 1 if found else 0


# ---------------------------------------------------------------------------
# verify batteries; each returns (exit_code, records)
# ---------------------------------------------------------------------------

def _battery_prop1(z_max: int, config: RunConfig):
    if not 5 <= z_max <= PAIR_Z_MAX_CAP:
        raise UsageError(f"--z-max must lie in 5..{PAIR_Z_MAX_CAP}")
    records = []
    failures = 0
    for y, z, d, ok in prop1_results(z_max, config.precision_bits,
                                     config.max_precision_bits):
        records.append(prop1_record(y, z, d, ok))
        failures += not ok
    _verdict(f"prop1 z <= {z_max}", failures == 0,
             f"pairs={len(records)} failures={failures}")
    return (0 if failures == 0 else 1), records


def _battery_norms(z_max: int, samples: int, config: RunConfig):
    if not 6 <= z_max <= PAIR_Z_MAX_CAP:
        raise UsageError(f"--z-max must lie in 6..{PAIR_Z_MAX_CAP}")
    if samples < 0:
        raise UsageError("--samples must be >= 0")
    records = []
    tight = 0
    for w in norm_witnesses(z_max):
        records.append(norm_record(w))
        tight += w.tight
    _verdict(f"norms z <= {z_max}", True,
             f"pairs={len(records)} tight={tight}")

    picked = regime_sample(z_max, samples)
    if picked:
        bad = 0
        for y, z in picked:
            rep = factor_bounds(y, z, config.precision_bits,
                                config.max_precision_bits)
            bad += not rep.ok
        _verdict(f"embedding bounds ({len(picked)} sampled pairs)", bad == 0)
        if bad:
            return 1, records
    return 0, records


def _battery_constants(config: RunConfig):
    if config.precision_bits > CONSTANTS_PRECISION_CAP:
        raise UsageError("verify constants needs --precision-bits <= "
                         f"{CONSTANTS_PRECISION_CAP}")
    report = verify_numeric_window(config.precision_bits)
    for c in report.checks:
        _verdict(f"constants {c.name}", c.ok, c.detail)
    return (0 if report.all_ok else 1), [constants_record(report)]


def _battery_growth(n_max: int, config: RunConfig):
    if not 2 <= n_max <= GROWTH_N_MAX_CAP:
        raise UsageError(f"--n-max must lie in 2..{GROWTH_N_MAX_CAP}")
    report = verify_growth(n_max, config.precision_bits,
                           config.max_precision_bits)
    _verdict(f"growth n <= {n_max}", report.all_ok,
             f"checked={report.checked} failures={len(report.failures)}")
    return (0 if report.all_ok else 1), [growth_record(report)]


def _battery_field(config: RunConfig):
    checks = field_identity_report()
    for name, ok in checks.items():
        _verdict(f"field {name}", ok)
    ok = all(checks.values())
    return (0 if ok else 1), [field_record(checks)]


def _battery_lemma2(config: RunConfig):
    records = []
    code = 0
    for label, (element, expected) in LEMMA2_CASES.items():
        cert = is_square_in_K(element, config.precision_bits,
                              config.max_precision_bits,
                              config.witness_prime_bound,
                              config.denominator_bound)
        records.append(lemma2_record(label, cert))
        ok = cert.verdict == expected
        detail = (f"square={cert.verdict} witnesses="
                  f"{cert.witness_self},{cert.witness_twisted}"
                  if not cert.verdict else f"square={cert.verdict}")
        _verdict(f"lemma2 {label}", ok, detail)
        code = max(code, 0 if ok else 1)
    return code, records


def _battery_expansion(x: int, y: int, z: int, t_max: int,
                       config: RunConfig):
    if not (5 <= x < y < z <= EXPANSION_INDEX_CAP and x + y > z):
        raise UsageError(f"need 5 <= x < y < z <= {EXPANSION_INDEX_CAP} "
                         "with x + y > z")
    if not 2 <= t_max <= 8:
        raise UsageError("--t-max must lie in 2..8")
    report = decay_report(x, y, z, t_max, config.precision_bits,
                          config.max_precision_bits)
    for t, err in enumerate(report.errors):
        print(f"expansion ({x},{y},{z}) t={t}: "
              f"error ~ {float(err.mid()):.6e}")
    _verdict("expansion decay", all(report.decreasing),
             f"orders 1..{t_max}")
    _verdict("expansion ratio bound", all(report.ratio_ok),
             "error(T+1)/error(T) <= 2*alpha^(-x/12)")
    return (0 if report.all_ok else 1), expansion_records(report)


def _battery_search(z_max: int, w_max: int, config: RunConfig):
    found = search(z_max, False)
    found_pruned = search(z_max, True)
    agree = found == found_pruned
    _verdict(f"search z <= {z_max}", agree and not found,
             f"count={len(found)} prune-agreement={agree}")
    found_brute = brute_force(w_max)
    _verdict(f"brute w <= {w_max}", not found_brute,
             f"count={len(found_brute)}")
    records = [search_summary_record("search", len(found), z_max=z_max,
                                     use_gcd_prune=False),
               search_summary_record("brute", len(found_brute),
                                     w_max=w_max)]
    for c in found + found_brute:
        records.append(triple_record(c.u, c.v, c.w, c.x, c.y, c.z, True))
    ok = agree and not found and not found_brute
    return (0 if ok else 1), records


def _cmd_verify(args, config: RunConfig) -> int:
    check = args.check
    if check == "prop1":
        code, records = _battery_prop1(args.z_max, config)
    elif check == "norms":
        code, records = _battery_norms(args.z_max, args.samples, config)
    elif check == "constants":
        code, records = _battery_constants(config)
    elif check == "growth":
        code, records = _battery_growth(args.n_max, config)
    elif check == "field":
        code, records = _battery_field(config)
    elif check == "lemma2":
        code, records = _battery_lemma2(config)
    elif check == "expansion":
        code, records = _battery_expansion(args.x, args.y, args.z,
                                           args.t_max, config)
    else:
        return _cmd_verify_all(args, config)
    _write(config, records)
    return code


def _cmd_verify_all(args, config: RunConfig) -> int:
    quick = args.quick
    budgets = {
        "growth_n": 500 if quick else 2000,
        "prop1_z": 100 if quick else 500,
        "norms_z": 60 if quick else 120,
        "search_z": 40 if quick else 60,
        "brute_w": 500 if quick else 2000,
        "t_max": 4 if quick else 6,
    }
    code = 0
    records = []
    for step in (
        lambda: _battery_constants(config),
        lambda: _battery_growth(budgets["growth_n"], config),
        lambda: _battery_field(config),
        lambda: _battery_lemma2(config),
        lambda: _battery_prop1(budgets["prop1_z"], config),
        lambda: _battery_norms(budgets["norms_z"], 25, config),
        lambda: _battery_search(budgets["search_z"], budgets["brute_w"],
                                config),
        lambda: _battery_expansion(20, 25, 30, budgets["t_max"], config),
    ):
        step_code, step_records = step()
        code = max(code, step_code)
        records.extend(step_records)
    _verdict("verify all", code == 0)
    _write(config, records)
    return code


def _cmd_check_records(args, config: RunConfig) -> int:
    try:
        records = read_records(args.path)
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc}")
    if not records:
        # no command writes a file that certifies nothing
        raise UsageError(f"no records in {args.path}")
    bad = 0
    for i, rec in enumerate(records, 1):
        ok, message = check_record(rec, config.precision_bits,
                                   config.max_precision_bits)
        if not ok:
            bad += 1
            print(f"record {i} ({rec.kind}): {message}")
    _verdict(f"check-records {args.path}", bad == 0,
             f"records={len(records)} failures={bad}")
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "gen": _cmd_gen,
    "member": _cmd_member,
    "search": _cmd_search,
    "brute": _cmd_brute,
    "verify": _cmd_verify,
    "check-records": _cmd_check_records,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = load_config(args)
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecordFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionFailure, InconclusiveSquareTest) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
