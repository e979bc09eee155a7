"""Command-line entry point.

Subcommands: ``gen`` prints sequence values, ``member`` answers membership
queries, ``search``/``brute`` hunt for triples two independent ways,
``verify`` runs the certified check batteries, and ``check-records``
re-validates a previously written record file.

Exit codes: 0 all checks passed (or searches came back empty as expected);
1 a check failed or a triple was found; 2 usage or configuration error;
3 a precision or certificate search hit its cap without a conclusion.

The settings are the ``RunConfig`` fields.  Each command takes a flag for
just the settings it reads (``_BATTERIES`` lists them for the ``verify``
batteries), and any other settings flag is a usage error.  Configuration
resolves flags over environment over defaults; every command reads and
validates all of TRIBOVERIFY_<NAME> from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from .constants import (DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION,
                        verify_numeric_window)
from .enclosure import PrecisionFailure
from .expansion import MAX_ORDER, decay_report
from .gcdbound import (IntegrityError, factor_bounds, norm_witnesses,
                       prop1_results, regime_sample)
from .records import (BRUTE_W_MAX_CAP, CONSTANTS_PRECISION_CAP,
                      EXPANSION_INDEX_CAP, GROWTH_N_MAX_CAP, LEMMA2_CASES,
                      PAIR_Z_MAX_CAP, SEARCH_Z_MAX_CAP, RecordFormatError,
                      check_record, constants_record, emit_records,
                      expansion_records, field_record, growth_record,
                      lemma2_record, norm_record, prop1_record, read_records,
                      search_summary_record, triple_record)
from .splitfield import (InconclusiveSquareTest, field_identity_report,
                         is_square_in_K)
from .tribonacci import default_table, is_tribonacci, verify_growth_trace
from .triples import brute_force, search


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


_PRECISION = ("precision_bits", "max_precision_bits")


class RunConfig(NamedTuple):
    precision_bits: int = DEFAULT_PRECISION
    max_precision_bits: int = MAX_PRECISION
    out: str | None = None

    def validate(self) -> "RunConfig":
        if self.precision_bits < MIN_PRECISION:
            raise UsageError(f"precision_bits must be >= {MIN_PRECISION}")
        if self.precision_bits > self.max_precision_bits:
            raise UsageError("precision_bits exceeds max_precision_bits")
        return self


def load_config(args: argparse.Namespace, environ=None) -> RunConfig:
    """Flags override environment overrides defaults."""
    env = os.environ if environ is None else environ
    config = RunConfig()
    for name in _PRECISION:
        raw = env.get("TRIBOVERIFY_" + name.upper())
        if raw is not None:
            try:
                config = config._replace(**{name: int(raw)})
            except ValueError:
                raise UsageError(
                    f"TRIBOVERIFY_{name.upper()}={raw!r} is not an integer")
    if env.get("TRIBOVERIFY_OUT"):
        config = config._replace(out=env["TRIBOVERIFY_OUT"])
    for name in _PRECISION + ("out",):
        value = getattr(args, name, None)
        if value is not None:
            config = config._replace(**{name: value})
    return config.validate()


def _leaf(sub, name: str, text: str, settings: tuple[str, ...], **defaults):
    """A subcommand with one flag per RunConfig field it reads."""
    p = sub.add_parser(name, help=text)
    for setting in settings:
        p.add_argument("--" + setting.replace("_", "-"), dest=setting,
                       type=int if setting in _PRECISION else str,
                       help="write JSONL records here"
                       if setting == "out" else None)
    p.set_defaults(**defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triboverify",
        description="desk-scale verification of the finiteness argument "
                    "for Tribonacci Diophantine triples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "gen", "print sequence values", (), func=_cmd_gen)
    p.add_argument("--max-index", type=int, required=True)

    p = _leaf(sub, "member", "membership queries", (), func=_cmd_member)
    p.add_argument("values", type=int, nargs="+")

    p = _leaf(sub, "search", "index-side triple search", ("out",),
              func=_cmd_search)
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--use-gcd-prune", action="store_true")

    p = _leaf(sub, "brute", "value-side triple search", ("out",),
              func=_cmd_brute)
    p.add_argument("--w-max", type=int, required=True)

    ver = sub.add_parser("verify", help="certified check batteries")
    vsub = ver.add_subparsers(dest="check", required=True)
    for name, battery in _BATTERIES.items():
        if battery.help is None:
            continue
        p = _leaf(vsub, name, battery.help, battery.settings + ("out",),
                  func=_cmd_verify, battery=battery.run)
        for flag, default in battery.args:
            p.add_argument(flag, type=int, default=default,
                           required=default is None)

    p = _leaf(vsub, "all", "every battery at standard budgets",
              RunConfig._fields, func=_cmd_verify,
              battery=_battery_all)
    p.add_argument("--quick", action="store_true",
                   help="reduced sweeps (z <= 100, n <= 500)")

    p = _leaf(sub, "check-records", "re-validate a JSONL record file",
              _PRECISION, func=_cmd_check_records)
    p.add_argument("path")
    return parser


def _write(config: RunConfig, records) -> None:
    if config.out:
        emit_records(config.out, records)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    tail = f"  {detail}" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{tail}")


def _triple_records(found) -> list:
    return [triple_record(c.u, c.v, c.w, c.x, c.y, c.z, True) for c in found]


# ---------------------------------------------------------------------------
# plain subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args, config: RunConfig) -> int:
    if not 0 <= args.max_index <= GROWTH_N_MAX_CAP:
        raise UsageError(f"--max-index must lie in 0..{GROWTH_N_MAX_CAP}")
    table = default_table()
    for n in range(args.max_index + 1):
        print(f"{n} {table.value(n)}")
    return 0


def _cmd_member(args, config: RunConfig) -> int:
    for value in args.values:
        if value < 0:
            raise UsageError("membership queries take nonnegative values")
        idx = is_tribonacci(value)
        print(f"{value} {'-' if idx is None else idx}")
    return 0


def _report_found(config: RunConfig, header: str, summary, found) -> int:
    print(header)
    triples = _triple_records(found)
    for rec in triples:
        print(rec.to_line())
    _write(config, [summary] + triples)
    return 1 if found else 0


def _cmd_search(args, config: RunConfig) -> int:
    if not 7 <= args.z_max <= SEARCH_Z_MAX_CAP:
        raise UsageError(f"--z-max must lie in 7..{SEARCH_Z_MAX_CAP}")
    found = search(args.z_max, args.use_gcd_prune)
    summary = search_summary_record("search", len(found), z_max=args.z_max,
                                    use_gcd_prune=args.use_gcd_prune)
    return _report_found(config, f"search z <= {args.z_max} prune="
                         f"{args.use_gcd_prune}: {len(found)} candidate(s)",
                         summary, found)


def _cmd_brute(args, config: RunConfig) -> int:
    if not 3 <= args.w_max <= BRUTE_W_MAX_CAP:
        raise UsageError(f"--w-max must lie in 3..{BRUTE_W_MAX_CAP}")
    found = brute_force(args.w_max)
    summary = search_summary_record("brute", len(found), w_max=args.w_max)
    return _report_found(config, f"brute w <= {args.w_max}: "
                         f"{len(found)} candidate(s)", summary, found)


# ---------------------------------------------------------------------------
# verify batteries; each takes (args, config) and returns (exit_code, records)
# ---------------------------------------------------------------------------

def _battery_prop1(args, config: RunConfig):
    if not 5 <= args.z_max <= PAIR_Z_MAX_CAP:
        raise UsageError(f"--z-max must lie in 5..{PAIR_Z_MAX_CAP}")
    records = []
    failures = 0
    for y, z, d, ok in prop1_results(args.z_max, config.precision_bits,
                                     config.max_precision_bits):
        records.append(prop1_record(y, z, d, ok))
        failures += not ok
    _verdict(f"prop1 z <= {args.z_max}", failures == 0,
             f"pairs={len(records)} failures={failures}")
    return (0 if failures == 0 else 1), records


def _battery_norms(args, config: RunConfig):
    if not 6 <= args.z_max <= PAIR_Z_MAX_CAP:
        raise UsageError(f"--z-max must lie in 6..{PAIR_Z_MAX_CAP}")
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    records = []
    tight = 0
    for w in norm_witnesses(args.z_max):
        records.append(norm_record(w))
        tight += w.tight
    _verdict(f"norms z <= {args.z_max}", True,
             f"pairs={len(records)} tight={tight}")

    picked = regime_sample(args.z_max, args.samples)
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


def _battery_constants(args, config: RunConfig):
    if config.precision_bits > CONSTANTS_PRECISION_CAP:
        raise UsageError("verify constants needs --precision-bits <= "
                         f"{CONSTANTS_PRECISION_CAP}")
    report = verify_numeric_window(config.precision_bits)
    for c in report.checks:
        _verdict(f"constants {c.name}", c.ok, c.detail)
    return (0 if report.all_ok else 1), [constants_record(report)]


def _battery_growth(args, config: RunConfig):
    if not 2 <= args.n_max <= GROWTH_N_MAX_CAP:
        raise UsageError(f"--n-max must lie in 2..{GROWTH_N_MAX_CAP}")
    # by power sums; check-records re-derives the record on enclosures
    report = verify_growth_trace(args.n_max, config.precision_bits,
                                 config.max_precision_bits)
    _verdict(f"growth n <= {args.n_max}", report.all_ok,
             f"checked={report.checked} failures={len(report.failures)}")
    return (0 if report.all_ok else 1), [growth_record(report)]


def _battery_field(args, config: RunConfig):
    checks = field_identity_report()
    for name, ok in checks.items():
        _verdict(f"field {name}", ok)
    ok = all(checks.values())
    return (0 if ok else 1), [field_record(checks)]


def _battery_lemma2(args, config: RunConfig):
    records = []
    code = 0
    for label, (element, expected) in LEMMA2_CASES.items():
        cert = is_square_in_K(element, config.precision_bits,
                              config.max_precision_bits)
        records.append(lemma2_record(label, cert))
        ok = cert.verdict == expected
        detail = (f"square={cert.verdict} witnesses="
                  f"{cert.witness_self},{cert.witness_twisted}"
                  if not cert.verdict else f"square={cert.verdict}")
        _verdict(f"lemma2 {label}", ok, detail)
        code = max(code, 0 if ok else 1)
    return code, records


def _battery_expansion(args, config: RunConfig):
    x, y, z, t_max = args.x, args.y, args.z, args.t_max
    if not (5 <= x < y < z <= EXPANSION_INDEX_CAP and x + y > z):
        raise UsageError(f"need 5 <= x < y < z <= {EXPANSION_INDEX_CAP} "
                         "with x + y > z")
    if not 2 <= t_max <= MAX_ORDER:
        raise UsageError(f"--t-max must lie in 2..{MAX_ORDER}")
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


def _battery_search(args, config: RunConfig):
    found = search(args.z_max, False)
    found_pruned = search(args.z_max, True)
    agree = found == found_pruned
    _verdict(f"search z <= {args.z_max}", agree and not found,
             f"count={len(found)} prune-agreement={agree}")
    found_brute = brute_force(args.w_max)
    _verdict(f"brute w <= {args.w_max}", not found_brute,
             f"count={len(found_brute)}")
    records = [search_summary_record("search", len(found), z_max=args.z_max,
                                     use_gcd_prune=False),
               search_summary_record("brute", len(found_brute),
                                     w_max=args.w_max)]
    records += _triple_records(found + found_brute)
    ok = agree and not found and not found_brute
    return (0 if ok else 1), records


class _Battery(NamedTuple):
    run: Callable
    # None: no ``verify`` subcommand of its own (``search`` and ``brute``
    # run its sweeps one at a time)
    help: str | None
    settings: tuple[str, ...]        # the RunConfig fields it reads
    args: tuple[tuple[str, int | None], ...] = ()   # (int flag, default)
    quick: dict = {}                 # its arguments under verify all --quick
    full: dict = {}                  # ... and under verify all


_XYZ = {"x": 20, "y": 25, "z": 30}

# in the order verify all runs them
_BATTERIES = {
    "constants": _Battery(_battery_constants,
                          "decimal windows for the cubic's constants",
                          ("precision_bits",)),
    "growth": _Battery(_battery_growth, "two-sided growth bounds for T_n",
                       _PRECISION, (("--n-max", None),),
                       {"n_max": 500}, {"n_max": 2000}),
    "field": _Battery(_battery_field, "exact splitting-field identities", ()),
    "lemma2": _Battery(_battery_lemma2,
                       "non-squareness certificates for a and alpha*a",
                       _PRECISION),
    "prop1": _Battery(_battery_prop1,
                      "gcd(T_y-1, T_z-1) < alpha^(3z/4) sweep", _PRECISION,
                      (("--z-max", None),), {"z_max": 100}, {"z_max": 500}),
    "norms": _Battery(_battery_norms, "exact norm certificates plus sampled "
                      "embedding bounds", _PRECISION,
                      (("--z-max", None), ("--samples", 25)),
                      {"z_max": 60, "samples": 25},
                      {"z_max": 120, "samples": 25}),
    "search": _Battery(_battery_search, None, (), (),
                       {"z_max": 40, "w_max": 500},
                       {"z_max": 60, "w_max": 2000}),
    "expansion": _Battery(_battery_expansion, "truncation error decay",
                          _PRECISION, (("--x", None), ("--y", None),
                                       ("--z", None), ("--t-max", 6)),
                          {**_XYZ, "t_max": 4}, {**_XYZ, "t_max": 6}),
}


def _battery_all(args, config: RunConfig):
    code = 0
    records = []
    for battery in _BATTERIES.values():
        budget = battery.quick if args.quick else battery.full
        step_code, step_records = battery.run(argparse.Namespace(**budget),
                                              config)
        code = max(code, step_code)
        records.extend(step_records)
    _verdict("verify all", code == 0)
    return code, records


def _cmd_verify(args, config: RunConfig) -> int:
    code, records = args.battery(args, config)
    _write(config, records)
    return code


def _cmd_check_records(args, config: RunConfig) -> int:
    # each record is checked as it is read: a malformed line exits 2 after
    # the failures of the lines before it, and an unreadable file exits 2
    # through run()
    count = bad = 0
    for count, rec in enumerate(read_records(args.path), 1):
        try:
            ok, message = check_record(rec, config.precision_bits,
                                       config.max_precision_bits)
        except RecordFormatError as exc:
            # a broken cross-field rule, reported at its line as a parse
            # error is; every line holds one record, so count is the line
            raise RecordFormatError(f"line {count}: {exc}") from exc
        if not ok:
            bad += 1
            print(f"record {count} ({rec.kind}): {message}")
    if count == 0:
        # no command writes a file that certifies nothing
        raise UsageError(f"no records in {args.path}")
    _verdict(f"check-records {args.path}", bad == 0,
             f"records={count} failures={bad}")
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = load_config(args)
        return args.func(args, config)
    except (UsageError, RecordFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # before ArithmeticError, which both subclass
    except (PrecisionFailure, InconclusiveSquareTest) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (IntegrityError, ArithmeticError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
