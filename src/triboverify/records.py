"""Persistent verification records: one JSON object per line.

Every record starts with "schema" (always 1) and "kind", then the payload
keys for its kind in a fixed order:

    triple          u, v, w, x, y, z, ok
    prop1           y, z, gcd, bound_ok
    norm            y, z, d, norm3, divides, tight
    lemma2          element, coords, square, root, witness_self,
                    witness_twisted
    constants       precision_bits, ok, checks
    growth          n_max, checked, ok, failures
    field           ok, checks
    expansion       x, y, z, t, err_lo, err_hi, decreasing, ratio_ok
    search-summary  mode, z_max, w_max, use_gcd_prune, count

Arbitrary-size integers (the values u, v, w, gcds, norms) travel as decimal
strings; small structural integers (indices, counts, precision) are plain
JSON numbers; exact rationals are "p" or "p/q" strings.  Serialization uses
compact separators and never formats a float, so identical inputs give
byte-identical files regardless of job count.

Each record is a self-describing certificate: ``check_record`` re-derives
its claim from scratch and reports agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Iterable

from .constants import verify_growth, verify_numeric_window
from .enclosure import Enclosure
from .expansion import (MAX_ORDER, DecayReport, decay_verdicts,
                        expansion_error)
from .gcdbound import GcdWitness, gcd_shifted, norm_witness, prop1_holds
from .splitfield import (CubicElement, FieldElement, SquareCertificate,
                         _legendre, field_identity_report)
from .tribonacci import TribTable, default_table

SCHEMA_VERSION = 1

_PAYLOAD_KEYS = {
    "triple": ("u", "v", "w", "x", "y", "z", "ok"),
    "prop1": ("y", "z", "gcd", "bound_ok"),
    "norm": ("y", "z", "d", "norm3", "divides", "tight"),
    "lemma2": ("element", "coords", "square", "root", "witness_self",
               "witness_twisted"),
    "constants": ("precision_bits", "ok", "checks"),
    "growth": ("n_max", "checked", "ok", "failures"),
    "field": ("ok", "checks"),
    "expansion": ("x", "y", "z", "t", "err_lo", "err_hi", "decreasing",
                  "ratio_ok"),
    "search-summary": ("mode", "z_max", "w_max", "use_gcd_prune", "count"),
}

RECORD_KINDS = tuple(_PAYLOAD_KEYS)


class RecordFormatError(ValueError):
    """A line failed to parse as a well-formed record."""


@dataclass(frozen=True)
class VerificationRecord:
    """One certificate, as an ordered (key, value) payload under a kind."""

    kind: str
    payload: tuple[tuple[str, Any], ...]

    def __post_init__(self):
        expected = _PAYLOAD_KEYS.get(self.kind)
        if expected is None:
            raise RecordFormatError(f"unknown record kind {self.kind!r}")
        keys = tuple(k for k, _ in self.payload)
        if keys != expected:
            raise RecordFormatError(
                f"{self.kind} payload keys {keys} != expected {expected}")

    def get(self, key: str) -> Any:
        for k, v in self.payload:
            if k == key:
                return v
        raise KeyError(key)

    def to_line(self) -> str:
        data: dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": self.kind}
        data.update(self.payload)
        return json.dumps(data, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "VerificationRecord":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordFormatError(f"bad JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise RecordFormatError("record line is not an object")
        keys = list(data)
        if keys[:2] != ["schema", "kind"]:
            raise RecordFormatError("record must start with schema, kind")
        if data["schema"] != SCHEMA_VERSION:
            raise RecordFormatError(f"unsupported schema {data['schema']!r}")
        kind = data["kind"]
        if kind not in _PAYLOAD_KEYS:
            raise RecordFormatError(f"unknown record kind {kind!r}")
        payload = tuple((k, data[k]) for k in keys[2:])
        return cls(kind, payload)


# ---------------------------------------------------------------------------
# encoding helpers
# ---------------------------------------------------------------------------

def _enc_int(n: int) -> str:
    return str(int(n))


def _dec_int(s: Any) -> int:
    if not isinstance(s, str):
        raise RecordFormatError(f"expected decimal string, got {s!r}")
    try:
        return int(s, 10)
    except ValueError:
        raise RecordFormatError(f"bad decimal string {s!r}") from None


def _enc_rat(q: Fraction) -> str:
    return str(Fraction(q))


def _dec_rat(s: Any) -> Fraction:
    if not isinstance(s, str):
        raise RecordFormatError(f"expected rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise RecordFormatError(f"bad rational string {s!r}") from None


def _enc_coords(coords) -> list[str]:
    return [_enc_rat(c) for c in coords]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def triple_record(u: int, v: int, w: int, x: int | None, y: int | None,
                  z: int | None, ok: bool) -> VerificationRecord:
    return VerificationRecord("triple", (
        ("u", _enc_int(u)), ("v", _enc_int(v)), ("w", _enc_int(w)),
        ("x", x), ("y", y), ("z", z), ("ok", bool(ok))))


def membership_triple_record(u: int, v: int, w: int,
                             table: TribTable | None = None
                             ) -> VerificationRecord:
    """Per-product membership outcome for (u, v, w); indices are recorded
    individually so a partial miss still documents which products landed."""
    t = table or default_table()
    x = t.first_index(u * v + 1)
    y = t.first_index(u * w + 1)
    z = t.first_index(v * w + 1)
    ok = x is not None and y is not None and z is not None
    return triple_record(u, v, w, x, y, z, ok)


def prop1_record(y: int, z: int, gcd_value: int,
                 bound_ok: bool) -> VerificationRecord:
    return VerificationRecord("prop1", (
        ("y", y), ("z", z), ("gcd", _enc_int(gcd_value)),
        ("bound_ok", bool(bound_ok))))


def norm_record(witness: GcdWitness) -> VerificationRecord:
    return VerificationRecord("norm", (
        ("y", witness.y), ("z", witness.z), ("d", _enc_int(witness.d)),
        ("norm3", _enc_int(witness.norm3_value)),
        ("divides", witness.norm3_value % witness.d ** 3 == 0),
        ("tight", bool(witness.tight))))


def lemma2_record(label: str,
                  cert: SquareCertificate) -> VerificationRecord:
    root = None
    if cert.root is not None:
        root = _enc_coords(cert.root.coords)
    return VerificationRecord("lemma2", (
        ("element", label),
        ("coords", _enc_coords(cert.element.coords)),
        ("square", bool(cert.verdict)),
        ("root", root),
        ("witness_self", list(cert.witness_self) if cert.witness_self else None),
        ("witness_twisted",
         list(cert.witness_twisted) if cert.witness_twisted else None)))


def constants_record(report) -> VerificationRecord:
    checks = {c.name: bool(c.ok) for c in report.checks}
    return VerificationRecord("constants", (
        ("precision_bits", report.precision_bits),
        ("ok", report.all_ok), ("checks", checks)))


def growth_record(report) -> VerificationRecord:
    return VerificationRecord("growth", (
        ("n_max", report.n_max), ("checked", report.checked),
        ("ok", report.all_ok),
        ("failures", [[n, side] for n, side in report.failures])))


def field_record(checks: dict[str, bool]) -> VerificationRecord:
    return VerificationRecord("field", (
        ("ok", all(checks.values())),
        ("checks", {k: bool(v) for k, v in checks.items()})))


def expansion_records(report: DecayReport) -> list[VerificationRecord]:
    """One record per truncation order; pairwise verdicts attach to the
    higher order of each pair and are null below order 2."""
    out = []
    for t, err in enumerate(report.errors):
        decreasing = ratio_ok = None
        if t >= 2:
            decreasing = report.decreasing[t - 2]
            ratio_ok = report.ratio_ok[t - 2]
        out.append(VerificationRecord("expansion", (
            ("x", report.x), ("y", report.y), ("z", report.z), ("t", t),
            ("err_lo", _enc_rat(err.lo)), ("err_hi", _enc_rat(err.hi)),
            ("decreasing", decreasing), ("ratio_ok", ratio_ok))))
    return out


def search_summary_record(mode: str, count: int, z_max: int | None = None,
                          w_max: int | None = None,
                          use_gcd_prune: bool | None = None
                          ) -> VerificationRecord:
    if mode not in ("search", "brute"):
        raise ValueError("mode must be 'search' or 'brute'")
    return VerificationRecord("search-summary", (
        ("mode", mode), ("z_max", z_max), ("w_max", w_max),
        ("use_gcd_prune", use_gcd_prune), ("count", count)))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def emit_records(path, records: Iterable[VerificationRecord]) -> None:
    """Write records as UTF-8 JSONL, one per line, in the given order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_line())
            fh.write("\n")


def read_records(path) -> list[VerificationRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(VerificationRecord.from_line(line))
            except RecordFormatError as exc:
                raise RecordFormatError(f"line {lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# independent re-validation
# ---------------------------------------------------------------------------

def _check_triple(rec: VerificationRecord) -> str | None:
    u, v, w = (_dec_int(rec.get(k)) for k in ("u", "v", "w"))
    fresh = membership_triple_record(u, v, w)
    if fresh.payload != rec.payload:
        return f"membership recomputation disagrees: {fresh.to_line()}"
    return None


def _pair_indices(rec: VerificationRecord) -> tuple[int, int]:
    """The record's (y, z), which must be plain ints with 4 <= y < z."""
    y, z = rec.get("y"), rec.get("z")
    # an exact type test, because bool is an int subclass
    if type(y) is not int or type(z) is not int or not 4 <= y < z:
        raise RecordFormatError(f"{rec.kind} needs integers 4 <= y < z, "
                                f"got y={y!r}, z={z!r}")
    return y, z


def _check_prop1(rec: VerificationRecord) -> str | None:
    y, z = _pair_indices(rec)
    d = gcd_shifted(y, z)
    if d != _dec_int(rec.get("gcd")):
        return f"gcd({y},{z}) recomputes to {d}"
    if prop1_holds(y, z) != rec.get("bound_ok"):
        return "bound verdict disagrees"
    return None


def _check_norm(rec: VerificationRecord) -> str | None:
    y, z = _pair_indices(rec)
    w = norm_witness(y, z)
    if w.d != _dec_int(rec.get("d")):
        return f"gcd recomputes to {w.d}"
    if w.norm3_value != _dec_int(rec.get("norm3")):
        return f"norm recomputes to {w.norm3_value}"
    if rec.get("divides") is not True:
        return "divides must hold in any witness"
    if w.tight != rec.get("tight"):
        return "tightness flag disagrees"
    return None


def _check_lemma2(rec: VerificationRecord) -> str | None:
    coords = [_dec_rat(c) for c in rec.get("coords")]
    if len(coords) != 3:
        return "element coords must have length 3"
    element = CubicElement(coords).to_field()
    if rec.get("square"):
        root_coords = rec.get("root")
        if root_coords is None:
            return "positive verdict requires a root"
        root = FieldElement([_dec_rat(c) for c in root_coords])
        if root * root != element:
            return "root does not square back to the element"
        return None
    for key, twist in (("witness_self", 1), ("witness_twisted", -11)):
        pair = rec.get(key)
        if pair is None:
            return f"negative verdict requires {key}"
        q, r = int(pair[0]), int(pair[1])
        if q in (2, 11):
            return f"{key} uses an excluded prime {q}"
        if (r * r * r - r * r - r - 1) % q:
            return f"{key}: {r} is not a root of the cubic mod {q}"
        target = CubicElement(coords) * twist
        den = lcm(*(c.denominator for c in target.coords))
        if den % q == 0:
            return f"{key}: prime {q} meets a denominator"
        nums = [c.numerator * (den // c.denominator) for c in target.coords]
        val = (nums[0] + r * (nums[1] + r * nums[2])) % q
        val = val * pow(den, -1, q) % q
        if val == 0 or _legendre(val, q) != -1:
            return f"{key}: residue check fails at ({q},{r})"
    return None


def _check_constants(rec: VerificationRecord) -> str | None:
    report = verify_numeric_window(rec.get("precision_bits"))
    fresh = constants_record(report)
    if fresh.payload != rec.payload:
        return f"window recomputation disagrees: {fresh.to_line()}"
    return None


def _check_growth(rec: VerificationRecord) -> str | None:
    report = verify_growth(rec.get("n_max"))
    fresh = growth_record(report)
    if fresh.payload != rec.payload:
        return f"growth recomputation disagrees: {fresh.to_line()}"
    return None


def _check_field(rec: VerificationRecord) -> str | None:
    fresh = field_record(field_identity_report())
    if fresh.payload != rec.payload:
        return f"identity recomputation disagrees: {fresh.to_line()}"
    return None


def _expansion_fields(rec: VerificationRecord
                      ) -> tuple[int, int, int, int, Enclosure]:
    """The record's x, y, z, t and error interval, after the type and range
    checks: plain ints with 5 <= x < y < z, x + y > z, 0 <= t <= MAX_ORDER,
    err_lo <= err_hi, and flags that are null below order 2, bools from
    order 2 on."""
    x, y, z, t = (rec.get(k) for k in ("x", "y", "z", "t"))
    # an exact type test, because bool is an int subclass
    if (any(type(v) is not int for v in (x, y, z, t))
            or not (5 <= x < y < z and x + y > z and 0 <= t <= MAX_ORDER)):
        raise RecordFormatError(
            f"expansion needs integers 5 <= x < y < z with x + y > z and "
            f"0 <= t <= {MAX_ORDER}, got x={x!r}, y={y!r}, z={z!r}, t={t!r}")
    lo, hi = _dec_rat(rec.get("err_lo")), _dec_rat(rec.get("err_hi"))
    if lo > hi:
        raise RecordFormatError(f"expansion error interval [{lo}, {hi}] "
                                "is inverted")
    flags = (rec.get("decreasing"), rec.get("ratio_ok"))
    if t < 2 and flags != (None, None):
        raise RecordFormatError(f"expansion flags must be null at t={t}, "
                                f"got {flags!r}")
    if t >= 2 and any(type(f) is not bool for f in flags):
        raise RecordFormatError(f"expansion flags must be bools at t={t}, "
                                f"got {flags!r}")
    return x, y, z, t, Enclosure(lo, hi)


def _check_expansion(rec: VerificationRecord) -> str | None:
    x, y, z, t, recorded = _expansion_fields(rec)
    # what expansion_error guarantees of every interval it returns
    if not (recorded.is_positive()
            and recorded.width() * 4096 <= recorded.lo):
        return ("recorded error interval is not positive with relative "
                "width at most 2^-12")
    fresh = expansion_error(x, y, z, t)
    if not fresh.intersects(recorded):
        return (f"recomputed error [{float(fresh.lo)}, {float(fresh.hi)}] "
                "misses the recorded interval")
    if t >= 2:
        prev = expansion_error(x, y, z, t - 1)
        (decreasing,), (ratio_ok,) = decay_verdicts(x, (prev, fresh))
        if decreasing != rec.get("decreasing"):
            return f"decreasing verdict recomputes to {decreasing}"
        if ratio_ok != rec.get("ratio_ok"):
            return f"ratio verdict recomputes to {ratio_ok}"
    return None


def _check_search_summary(rec: VerificationRecord) -> str | None:
    from .triples import brute_force, search
    mode = rec.get("mode")
    if mode == "search":
        found = search(rec.get("z_max"), bool(rec.get("use_gcd_prune")))
    else:
        found = brute_force(rec.get("w_max"))
    if len(found) != rec.get("count"):
        return f"{mode} recomputes {len(found)} candidates"
    return None


_CHECKERS = {
    "triple": _check_triple,
    "prop1": _check_prop1,
    "norm": _check_norm,
    "lemma2": _check_lemma2,
    "constants": _check_constants,
    "growth": _check_growth,
    "field": _check_field,
    "expansion": _check_expansion,
    "search-summary": _check_search_summary,
}


def check_record(rec: VerificationRecord) -> tuple[bool, str]:
    """Re-derive the record's claim from scratch; (True, "ok") when the
    recomputation agrees."""
    problem = _CHECKERS[rec.kind](rec)
    if problem is None:
        return True, "ok"
    return False, problem
