"""Persistent verification records: one JSON object per line.

Every record starts with "schema" (always 1) and "kind", then the payload
keys for its kind in the order that ``_FIELDS`` lists, which also gives
each field its codec: its wire type, range and spelling.  Arbitrary-size
integers (the values u, v, w, gcds, norms) travel as decimal strings; small
structural integers (indices, counts, precision) are plain JSON numbers;
exact rationals are "p" or "p/q" strings.  Serialization uses compact
separators and never formats a float, so identical inputs give
byte-identical files, and ``from_line`` accepts exactly the lines that
``to_line`` writes.

A record's payload holds only the decoded values (ints, Fractions, tuples,
bools), in ``_FIELDS`` order; the keys live in ``_FIELDS`` alone.
``to_line`` and ``from_line`` are the only code that knows the wire format.
``to_line`` writes every kind through one ``%`` format per kind, compiled
from each codec's ``form``, the field's only spelling.  A field whose value
is one token has one rule: a regex for its text, the function that reads
the text, and the range of the value.  ``from_line`` reads the flat kinds
(triple, prop1, norm, expansion, search-summary), whose every field is a
token, with one pattern per kind built from those rules, and applies the
ranges inline: a match is canonical by construction.  Any other line, or a
value out of range or too long for ``int``, goes through ``json.loads``,
where each token field applies the same rule to the JSON spelling of its
value, and the line is accepted only when ``to_line`` writes it back
unchanged.  ``read_records`` strips only the newline that ``emit_records``
ends each line with, so a blank line, a carriage return or any other byte
around a record is malformed; it yields each record as it reads it, so a
run over a file holds one record at a time.

Each record is a self-describing certificate: ``check_record`` re-derives
its claim from scratch and reports agreement.  It is the one path for a
single record and for a whole file alike: what a run of records shares
lives in module caches.
"""

from __future__ import annotations

import functools
import json
import re
from collections import namedtuple
from fractions import Fraction
from math import floor, isqrt
from typing import Any, Iterable, Iterator

from .constants import (DEFAULT_PRECISION, MAX_PRECISION, alpha_power,
                        verify_growth, verify_numeric_window)
from .enclosure import Enclosure, PrecisionFailure, precision_ladder
from .expansion import (MAX_ORDER, DecayReport, decay_verdicts,
                        expansion_error)
from .gcdbound import GcdWitness, _prop1_verdict, gcd_shifted, norm_witness
from .splitfield import (ALPHA_C, WITNESS_PRIME_BOUND, CubicElement,
                         FieldElement, SquareCertificate, _clear_denominators,
                         _legendre, field_identity_report, is_square_in_K)
from .tribonacci import default_table, trib_fast
from .triples import brute_force, search

SCHEMA_VERSION = 1


class RecordFormatError(ValueError):
    """A line failed to parse as a well-formed record."""


# ---------------------------------------------------------------------------
# field codecs.  ``decode`` takes a parsed JSON value and returns the payload
# value or raises RecordFormatError.  ``form`` is the field's one spelling, a
# pair (piece, convert): piece is "%s", '"%s"' or "[%s]", and the value,
# passed through convert unless that is None, fills it in.  A token field
# (``_flat``) also has its rule: ``pattern``, a regex for its text inside the
# piece, ``read``, which turns that text into the value or raises ValueError,
# and ``bounds``, the (lo, hi) the value lies in, or None.  ``_template``
# matches lines by the rule and the field's ``decode`` applies it to the
# JSON value, so both parse routes accept the same values.
# ---------------------------------------------------------------------------

_Codec = namedtuple("_Codec", "decode form pattern read bounds",
                    defaults=(None, None, None))

# what "%s" is filled with: the value itself, with its str
_AS_STR = ("%s", None)
_QUOTED = ('"%s"', None)

# str of an int: no sign on zero, no leading zero; [0-9], because \d would
# also match the other Unicode digits, which int() reads
_INT_PATTERN = "0|-?[1-9][0-9]*"

# the JSON values a token can hold
_SCALARS = (str, int, bool, type(None))


def _spelt(form, value) -> str:
    """The text of value in a field of the given form."""
    piece, convert = form
    return piece % (value if convert is None else convert(value),)


def _group(form, pattern: str) -> str:
    """The regex of a token field's text in its piece, the text captured."""
    return form[0] % f"({pattern})"


def _flat(what: str, form, pattern: str, read, bounds=None) -> _Codec:
    """A token field: the text that ``pattern`` matches inside the piece of
    ``form``, which ``read`` turns into a value within ``bounds``.  Its
    ``decode`` holds a JSON value to the same rule, spelt as JSON."""
    group = _group(form, pattern)

    def decode(v):
        # a list or object never matches: json.dumps never walks one, however
        # deeply nested
        m = re.fullmatch(group, json.dumps(v)) if type(v) in _SCALARS else None
        if m is not None:
            try:
                value = read(m[1])
            except ValueError:
                pass
            else:
                if bounds is None or bounds[0] <= value <= bounds[1]:
                    return value
        raise RecordFormatError(f"needs {what}, got {v!r}")
    return _Codec(decode, form, pattern, read, bounds)


def _int(lo: int, hi: float = float("inf")) -> _Codec:
    return _flat(f"an integer {lo} <= n <= {hi}", _AS_STR, _INT_PATTERN, int,
                 (lo, hi))


def _one_of(*options: str) -> _Codec:
    return _flat(f"one of {', '.join(options)}", _QUOTED,
                 "|".join(map(re.escape, options)), str)


def _read_rational(text: str) -> Fraction:
    """The Fraction that ``text`` is the str of: "p", or "p/q" in lowest
    terms with q > 1."""
    num, slash, den = text.partition("/")
    value = Fraction(int(num), int(den) if slash else 1)
    if str(value) != text:
        raise ValueError(f"{text} is not in lowest terms")
    return value


def _nullable(codec: _Codec) -> _Codec:
    """null, or a value of codec.  A token stays one: its pattern admits
    null, and its read applies its bounds, since null has none.  Every
    nullable token here is unquoted, so its piece stays "%s"."""
    decode, form, pattern, read, bounds = codec

    def read_nullable(text):
        if text == "null":
            return None
        value = read(text)
        if bounds is not None and not bounds[0] <= value <= bounds[1]:
            raise ValueError(f"{text} is out of range")
        return value
    return _Codec((lambda v: None if v is None else decode(v)),
                  ("%s", lambda v: "null" if v is None else _spelt(form, v)),
                  pattern and f"null|{pattern}", read and read_nullable)


def _list(*codecs: _Codec) -> _Codec:
    """A list of exactly len(codecs) items, decoded to a tuple."""
    def decode(v):
        if type(v) is not list or len(v) != len(codecs):
            raise RecordFormatError(f"needs a list of {len(codecs)} items, "
                                    f"got {v!r}")
        return tuple(c.decode(x) for c, x in zip(codecs, v))
    return _Codec(decode, ("[%s]", lambda v: ",".join(
        _spelt(c.form, x) for c, x in zip(codecs, v))))


def _list_of(codec: _Codec) -> _Codec:
    """A list of any length, decoded to a tuple."""
    dec, form = codec.decode, codec.form

    def decode(v):
        if type(v) is not list:
            raise RecordFormatError(f"needs a list, got {v!r}")
        return tuple(dec(x) for x in v)
    return _Codec(decode, ("[%s]", lambda v: ",".join(
        _spelt(form, x) for x in v)))


def _decode_checks(v):
    if type(v) is dict and all(type(b) is bool for b in v.values()):
        return v
    raise RecordFormatError(f"needs an object of booleans, got {v!r}")


_A_COEFF = CubicElement((-1, -2, 3)).inv()

# The elements a lemma2 record may name, by label, with the squareness
# verdict expected of each: a and alpha*a are not squares in K, and the two
# controls are.
LEMMA2_CASES = {
    "a": (_A_COEFF, False),
    "alpha*a": (ALPHA_C * _A_COEFF, False),
    "alpha^2": (ALPHA_C * ALPHA_C, True),
    "-11": (CubicElement((-11, 0, 0)), True),
}

# Largest sizes a record may ask check-records to re-run, timed on a shared
# 2-core VM with Python 3.11: search(1000) takes about 0.27 s (once for both
# prune flags and a whole file, since ``search`` shares one sweep),
# brute_force(10**6) about 1 ms, verify_numeric_window(4096) about 0.3 s
# (16384 bits take about 5 s) and verify_growth(10**4) about 0.3 s.  A prop1
# or norm pair with z <= 2000 checks in at most about 0.1 s in a fresh
# process (z = 10**4 took 1.5 s), and an expansion record at order 8 with
# z <= 100 in about 0.5 s (z = 150 took 0.7 s).  The CLI refuses to write
# records past these.
SEARCH_Z_MAX_CAP = 1000
BRUTE_W_MAX_CAP = 10 ** 6
CONSTANTS_PRECISION_CAP = 4096
GROWTH_N_MAX_CAP = 10 ** 4
PAIR_Z_MAX_CAP = 2000
EXPANSION_INDEX_CAP = 100
# A triple that search can write has v*w + 1 = T_z with z <= SEARCH_Z_MAX_CAP,
# and one from brute has w <= BRUTE_W_MAX_CAP, so each of u < v < w stays
# below T_1000.  The cap keeps the sequence table that the checker grows to
# reach u*v + 1 near index 2000 (a u of 10**2000 took 0.36 s and raised peak
# RSS by 36 MB).
TRIPLE_VALUE_CAP = trib_fast(SEARCH_Z_MAX_CAP)

_BOOL = _flat("true or false",
              ("%s", {True: "true", False: "false"}.__getitem__),
              "true|false", "true".__eq__)
_FLAG = _nullable(_BOOL)
_DECIMAL = _flat("a decimal string", _QUOTED, _INT_PATTERN, int)
_RATIONAL = _flat('a string "p" or "p/q" in lowest terms', _QUOTED,
                  f"(?:{_INT_PATTERN})(?:/[1-9][0-9]*)?", _read_rational)
_INDEX = _int(0)
_TRIPLE_VALUE = _flat(f"a decimal string for an integer "
                      f"1 <= n < T_{SEARCH_Z_MAX_CAP}", _QUOTED, _INT_PATTERN,
                      int, (1, TRIPLE_VALUE_CAP - 1))
_FIRST_INDEX = _nullable(_INDEX)
_PAIR_INDEX = _int(4, PAIR_Z_MAX_CAP)
_EXPANSION_INDEX = _int(5, EXPANSION_INDEX_CAP)
_CHECKS = _Codec(_decode_checks,
                 ("%s", functools.partial(json.dumps, separators=(",", ":"))))
# (q, r): a witness prime q with a root r of the cubic mod q, q within the
# bound the lemma2 battery searches
_WITNESS = _nullable(_list(_int(3, WITNESS_PRIME_BOUND),
                           _int(0, WITNESS_PRIME_BOUND)))

_FIELDS = {
    "triple": (("u", _TRIPLE_VALUE), ("v", _TRIPLE_VALUE),
               ("w", _TRIPLE_VALUE),
               ("x", _FIRST_INDEX), ("y", _FIRST_INDEX),
               ("z", _FIRST_INDEX), ("ok", _BOOL)),
    "prop1": (("y", _PAIR_INDEX), ("z", _PAIR_INDEX), ("gcd", _DECIMAL),
              ("bound_ok", _BOOL)),
    "norm": (("y", _PAIR_INDEX), ("z", _PAIR_INDEX), ("d", _DECIMAL),
             ("norm3", _DECIMAL), ("divides", _BOOL), ("tight", _BOOL)),
    "lemma2": (("element", _one_of(*LEMMA2_CASES)),
               ("coords", _list(*[_RATIONAL] * 3)), ("square", _BOOL),
               ("root", _nullable(_list(*[_RATIONAL] * 6))),
               ("witness_self", _WITNESS), ("witness_twisted", _WITNESS)),
    "constants": (("precision_bits", _int(1, CONSTANTS_PRECISION_CAP)),
                  ("ok", _BOOL), ("checks", _CHECKS)),
    "growth": (("n_max", _int(2, GROWTH_N_MAX_CAP)), ("checked", _INDEX),
               ("ok", _BOOL),
               ("failures",
                _list_of(_list(_INDEX, _one_of("lower", "upper"))))),
    "field": (("ok", _BOOL), ("checks", _CHECKS)),
    "expansion": (("x", _EXPANSION_INDEX), ("y", _EXPANSION_INDEX),
                  ("z", _EXPANSION_INDEX),
                  ("t", _int(0, MAX_ORDER)), ("err_lo", _RATIONAL),
                  ("err_hi", _RATIONAL), ("decreasing", _FLAG),
                  ("ratio_ok", _FLAG)),
    "search-summary": (("mode", _one_of("search", "brute")),
                       ("z_max", _nullable(_int(7, SEARCH_Z_MAX_CAP))),
                       ("w_max", _nullable(_int(3, BRUTE_W_MAX_CAP))),
                       ("use_gcd_prune", _FLAG), ("count", _INDEX)),
}

_POSITIONS = {kind: {key: i for i, (key, _) in enumerate(fields)}
              for kind, fields in _FIELDS.items()}

RECORD_KINDS = tuple(_FIELDS)

_HEAD = f'{{"schema":{SCHEMA_VERSION},"kind":"'


class VerificationRecord(namedtuple("VerificationRecord", "kind payload")):
    """One certificate: a kind and its payload, the values in ``_FIELDS``
    order, which holds the keys.

    Immutable; equal and hashed by (kind, payload).  The checks dict of a
    constants or field record makes that record unhashable."""

    __slots__ = ()

    def __new__(cls, kind: str, payload: tuple[Any, ...]):
        fields = _FIELDS.get(kind)
        if fields is None:
            raise RecordFormatError(f"unknown record kind {kind!r}")
        if len(payload) != len(fields):
            raise RecordFormatError(f"{kind} needs {len(fields)} values, "
                                    f"got {len(payload)}")
        return tuple.__new__(cls, (kind, tuple(payload)))

    def get(self, key: str) -> Any:
        return self.payload[_POSITIONS[self.kind][key]]

    def to_line(self) -> str:
        text, conversions = _format(self.kind)
        values = list(self.payload)
        for i, convert in conversions:
            values[i] = convert(values[i])
        return text % tuple(values)

    @classmethod
    def from_line(cls, line: str) -> "VerificationRecord":
        rec = _from_template(line)
        return rec if rec is not None else _from_json(line)


def _build(kind: str, *values) -> VerificationRecord:
    """The record of a kind with its values in ``_FIELDS`` order; every
    builder passes them so, so there is nothing to check."""
    return tuple.__new__(VerificationRecord, (kind, values))


@functools.cache
def _format(kind: str):
    """(format, conversions) for a kind: ``format % values`` is the line
    of a record, where values is its payload with each (position, convert)
    of conversions applied.  Compiled on first use, as ``_template`` is."""
    fields = _FIELDS[kind]
    # no kind or key holds a "%"
    text = f'{_HEAD}{kind}"' + "".join(
        f',"{key}":{codec.form[0]}' for key, codec in fields) + "}"
    return text, tuple((i, codec.form[1])
                       for i, (_, codec) in enumerate(fields)
                       if codec.form[1] is not None)


@functools.cache
def _template(kind: str):
    """(fullmatch, reads, bounds) for a kind whose every field is a token:
    the pattern matches exactly the lines ``to_line`` writes for that kind,
    with one group per field, its pattern inside its piece; reads[i] turns
    field i's group into its value, and bounds holds (i, lo, hi) for each
    field with bounds.  None for a kind with a list or object field.
    Compiled on first use, so that a run which only writes records never
    pays for it."""
    fields = _FIELDS[kind]
    if any(codec.pattern is None for _, codec in fields):
        return None
    pattern = re.escape(f'{_HEAD}{kind}"') + "".join(
        re.escape(f',"{key}":') + _group(codec.form, codec.pattern)
        for key, codec in fields)
    return (re.compile(pattern + "}").fullmatch,
            tuple(codec.read for _, codec in fields),
            tuple((i, *codec.bounds) for i, (_, codec) in enumerate(fields)
                  if codec.bounds is not None))


def _from_template(line: str) -> VerificationRecord | None:
    """The record of a line of a flat kind in canonical form, or None.  A
    match is canonical by construction; a value out of range, or an integer
    too long for ``int``, is left to ``_from_json`` to report."""
    # the kind's pattern checks the head, so a slice of any line will do
    kind = line[len(_HEAD):line.find('"', len(_HEAD))]
    template = _template(kind) if kind in _FIELDS else None
    if template is None:
        return None
    fullmatch, reads, bounds = template
    m = fullmatch(line)
    if m is None:
        return None
    try:
        values = [read(text) for read, text in zip(reads, m.groups())]
    except ValueError:
        return None
    for i, lo, hi in bounds:
        if not lo <= values[i] <= hi:
            return None
    return _build(kind, *values)


def _from_json(line: str) -> VerificationRecord:
    """Parse any line through ``json.loads`` and accept it only when it is
    the line ``to_line`` writes for the decoded values."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise RecordFormatError(f"bad JSON: {exc}") from None
    if type(data) is not dict:
        raise RecordFormatError("record line is not an object")
    schema, kind = data.get("schema"), data.get("kind")
    if schema != SCHEMA_VERSION:
        raise RecordFormatError(f"unsupported schema {schema!r}")
    if type(kind) is not str or kind not in _FIELDS:
        raise RecordFormatError(f"unknown record kind {kind!r}")
    values = []
    for key, codec in _FIELDS[kind]:
        try:
            values.append(codec.decode(data.get(key)))
        except RecordFormatError as exc:
            raise RecordFormatError(f"{kind} {key}: {exc}") from None
    rec = _build(kind, *values)
    # rejects what the decoded values cannot show: key order, missing or
    # extra keys, spacing, escapes, a schema of 1.0, an integer spelt -0
    canonical = rec.to_line()
    if canonical != line:
        raise RecordFormatError(f"line is not in the form to_line "
                                f"writes: {canonical}")
    return rec


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def triple_record(u: int, v: int, w: int, x: int | None, y: int | None,
                  z: int | None, ok: bool) -> VerificationRecord:
    return _build("triple", u, v, w, x, y, z, bool(ok))


def membership_triple_record(u: int, v: int, w: int) -> VerificationRecord:
    """Per-product membership outcome for (u, v, w); indices are recorded
    individually so a partial miss still documents which products landed."""
    t = default_table()
    x = t.first_index(u * v + 1)
    y = t.first_index(u * w + 1)
    z = t.first_index(v * w + 1)
    ok = x is not None and y is not None and z is not None
    return triple_record(u, v, w, x, y, z, ok)


def prop1_record(y: int, z: int, gcd_value: int,
                 bound_ok: bool) -> VerificationRecord:
    return _build("prop1", y, z, gcd_value, bool(bound_ok))


def norm_record(witness: GcdWitness) -> VerificationRecord:
    return _build("norm", witness.y, witness.z, witness.d,
                  witness.norm3_value,
                  witness.norm3_value % witness.d ** 3 == 0,
                  bool(witness.tight))


def lemma2_record(label: str,
                  cert: SquareCertificate) -> VerificationRecord:
    return _build("lemma2", label, cert.element.coords, bool(cert.verdict),
                  cert.root.coords if cert.root is not None else None,
                  cert.witness_self, cert.witness_twisted)


def constants_record(report) -> VerificationRecord:
    checks = {c.name: bool(c.ok) for c in report.checks}
    return _build("constants", report.precision_bits, report.all_ok, checks)


def growth_record(report) -> VerificationRecord:
    return _build("growth", report.n_max, report.checked, report.all_ok,
                  tuple(report.failures))


def field_record(checks: dict[str, bool]) -> VerificationRecord:
    return _build("field", all(checks.values()),
                  {k: bool(v) for k, v in checks.items()})


def expansion_records(report: DecayReport) -> list[VerificationRecord]:
    """One record per truncation order; pairwise verdicts attach to the
    higher order of each pair and are null below order 2."""
    out = []
    for t, err in enumerate(report.errors):
        decreasing = ratio_ok = None
        if t >= 2:
            decreasing = report.decreasing[t - 2]
            ratio_ok = report.ratio_ok[t - 2]
        out.append(_build("expansion", report.x, report.y, report.z, t,
                          err.lo, err.hi, decreasing, ratio_ok))
    return out


def search_summary_record(mode: str, count: int, z_max: int | None = None,
                          w_max: int | None = None,
                          use_gcd_prune: bool | None = None
                          ) -> VerificationRecord:
    if mode not in ("search", "brute"):
        raise ValueError("mode must be 'search' or 'brute'")
    return _build("search-summary", mode, z_max, w_max, use_gcd_prune, count)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def emit_records(path, records: Iterable[VerificationRecord]) -> None:
    """Write records as UTF-8 JSONL, one per line, in the given order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_line())
            fh.write("\n")


def read_records(path) -> Iterator[VerificationRecord]:
    """The records of a file, one at a time as they are read, so that a
    caller holds only the record in hand."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                # only the newline emit_records writes; any other byte
                # around a record, or a blank line, is malformed
                line = raw.decode("utf-8").removesuffix("\n")
                rec = VerificationRecord.from_line(line)
            except (UnicodeDecodeError, RecordFormatError) as exc:
                raise RecordFormatError(f"line {lineno}: {exc}") from exc
            yield rec


# ---------------------------------------------------------------------------
# independent re-validation: from_line has checked each field's type and
# range, so a checker holds only its cross-field rules and recomputation.
# Every checker takes the record plus the starting precision and the cap of
# its adaptive recomputation.
# ---------------------------------------------------------------------------

def _recomputed(build):
    """A checker that rebuilds the whole record from scratch with ``build``
    and compares."""
    def check(rec: VerificationRecord, precision_bits: int,
              max_precision_bits: int) -> str | None:
        fresh = build(rec, precision_bits, max_precision_bits)
        if fresh.payload != rec.payload:
            return f"recomputation disagrees: {fresh.to_line()}"
        return None
    return check


def _pair_indices(rec: VerificationRecord) -> tuple[int, int]:
    """The record's (y, z), which must satisfy y < z."""
    y, z = rec.get("y"), rec.get("z")
    if not y < z:
        raise RecordFormatError(f"{rec.kind} needs y < z, got y={y}, z={z}")
    return y, z


def _ordered_triple(rec: VerificationRecord, *_) -> VerificationRecord:
    """The membership record of the record's (u, v, w), which must satisfy
    u < v < w."""
    u, v, w = rec.payload[:3]
    if not u < v < w:
        raise RecordFormatError(f"triple needs u < v < w, got u={u}, v={v}, "
                                f"w={w}")
    return membership_triple_record(u, v, w)


@functools.lru_cache(maxsize=PAIR_Z_MAX_CAP)
def _prop1_floor(z: int, precision_bits: int) -> int:
    """r_z = floor(lo**(1/4)), for lo the lower end of the enclosure of
    alpha**(3*z) at precision_bits.  r_z**4 <= lo <= alpha**(3*z), which is
    irrational, so d**4 < alpha**(3*z) for every d <= r_z.  The cache has
    room for every z a record can name at one precision."""
    return isqrt(isqrt(floor(alpha_power(3 * z, precision_bits).lo)))


def _check_prop1(rec: VerificationRecord, precision_bits: int,
                 max_precision_bits: int) -> str | None:
    y, z = _pair_indices(rec)
    recorded_gcd, recorded_ok = rec.payload[2:]
    d = gcd_shifted(y, z)
    if d != recorded_gcd:
        return f"gcd({y},{z}) recomputes to {d}"
    # above the floor, the enclosure comparison of d**4 with alpha**(3*z)
    # decides, escalating as far as max_precision_bits
    bound_ok = d <= _prop1_floor(z, precision_bits) or _prop1_verdict(
        z, d, precision_bits, max_precision_bits)
    if bound_ok != recorded_ok:
        return "bound verdict disagrees"
    return None


def _check_norm(rec: VerificationRecord, precision_bits: int,
                max_precision_bits: int) -> str | None:
    y, z = _pair_indices(rec)
    w = norm_witness(y, z)
    if w.d != rec.get("d"):
        return f"gcd recomputes to {w.d}"
    if w.norm3_value != rec.get("norm3"):
        return f"norm recomputes to {w.norm3_value}"
    if rec.get("divides") is not True:
        return "divides must hold in any witness"
    if w.tight != rec.get("tight"):
        return "tightness flag disagrees"
    return None


def _is_odd_prime(q: int) -> bool:
    return q % 2 == 1 and all(q % p for p in range(3, isqrt(q) + 1, 2))


def _check_lemma2(rec: VerificationRecord, precision_bits: int,
                  max_precision_bits: int) -> str | None:
    label, coords, square, root, *witnesses = rec.payload
    element, expected = LEMMA2_CASES[label]
    if CubicElement(coords) != element:
        return f"coords are not those of the element {label}"
    if square != expected:
        return f"the element {label} has square={expected}"
    problem = _lemma2_certificate_problem(element, square, root, witnesses)
    if problem is not None:
        return problem
    # a sound certificate need not be the battery's: -root squares back
    # too, and a later witness prime refutes as well
    battery = lemma2_record(label, is_square_in_K(
        element, precision_bits, max_precision_bits))
    if battery.payload != rec.payload:
        return ("certificate is not the one the battery writes: "
                f"{battery.to_line()}")
    return None


def _lemma2_certificate_problem(element: CubicElement, square: bool, root,
                                witnesses: list) -> str | None:
    """What is wrong with the certificate of a lemma2 record, checked by
    exact arithmetic alone, or None when it proves the verdict."""
    if square:
        if root is None or witnesses != [None, None]:
            return "a square verdict carries a root and no witnesses"
        if FieldElement(root) * FieldElement(root) != element.to_field():
            return "root does not square back to the element"
        return None
    if root is not None:
        return "a non-square verdict carries no root"
    for key, twist, pair in zip(("witness_self", "witness_twisted"),
                                (1, -11), witnesses):
        if pair is None:
            return f"negative verdict requires {key}"
        q, r = pair
        if q == 11 or not _is_odd_prime(q) or r >= q:
            return (f"{key}: ({q},{r}) needs a prime q other than 2 and 11 "
                    "and 0 <= r < q")
        if (r * r * r - r * r - r - 1) % q:
            return f"{key}: {r} is not a root of the cubic mod {q}"
        den, nums = _clear_denominators((element * twist).coords)
        if den % q == 0:
            return f"{key}: prime {q} meets a denominator"
        val = (nums[0] + r * (nums[1] + r * nums[2])) * pow(den, -1, q) % q
        if val == 0 or _legendre(val, q) != -1:
            return f"{key}: residue check fails at ({q},{r})"
    return None


def _check_expansion(rec: VerificationRecord, precision_bits: int,
                     max_precision_bits: int) -> str | None:
    x, y, z, t, lo, hi, decreasing, ratio_ok = rec.payload
    if not (x < y < z and x + y > z):
        raise RecordFormatError(f"expansion needs x < y < z with x + y > z, "
                                f"got x={x}, y={y}, z={z}")
    if lo > hi:
        raise RecordFormatError(f"expansion error interval [{lo}, {hi}] "
                                "is inverted")
    if (decreasing is None, ratio_ok is None) != (t < 2, t < 2):
        raise RecordFormatError(f"expansion flags must be null exactly "
                                f"below order 2, got {decreasing!r}, "
                                f"{ratio_ok!r} at t={t}")
    recorded = Enclosure(lo, hi)
    # what expansion_error guarantees of every interval it returns
    if not (recorded.is_positive()
            and recorded.width() * 4096 <= recorded.lo):
        return ("recorded error interval is not positive with relative "
                "width at most 2^-12")
    # the record claims that its interval holds the error, which is proved
    # only when the interval encloses a recomputed enclosure; one that
    # merely meets it is recomputed at twice the precision, up to the cap
    fresh = expansion_error(x, y, z, t, precision_bits, max_precision_bits)
    for bits in precision_ladder(precision_bits, max_precision_bits)[1:]:
        if recorded.encloses(fresh) or not fresh.intersects(recorded):
            break
        fresh = expansion_error(x, y, z, t, bits, max_precision_bits)
    if not fresh.intersects(recorded):
        return (f"recomputed error [{float(fresh.lo)}, {float(fresh.hi)}] "
                "misses the recorded interval")
    if not recorded.encloses(fresh):
        raise PrecisionFailure(
            f"recomputed error at order {t} neither inside nor apart from "
            f"the recorded interval within {max_precision_bits} bits")
    if t >= 2:
        prev = expansion_error(x, y, z, t - 1, precision_bits,
                               max_precision_bits)
        (fresh_decreasing,), (fresh_ratio_ok,) = decay_verdicts(
            x, (prev, fresh), precision_bits)
        if fresh_decreasing != decreasing:
            return f"decreasing verdict recomputes to {fresh_decreasing}"
        if fresh_ratio_ok != ratio_ok:
            return f"ratio verdict recomputes to {fresh_ratio_ok}"
    return None


def _check_search_summary(rec: VerificationRecord, precision_bits: int,
                          max_precision_bits: int) -> str | None:
    mode, z_max, w_max, prune, count = rec.payload
    if mode == "search":
        used, unused = (z_max, prune), (w_max,)
    else:
        used, unused = (w_max,), (z_max, prune)
    if None in used or unused != (None,) * len(unused):
        raise RecordFormatError(
            "search-summary needs z_max and use_gcd_prune, and a null w_max, "
            "in mode search, and the reverse in mode brute; got "
            f"mode={mode}, z_max={z_max!r}, w_max={w_max!r}, "
            f"use_gcd_prune={prune!r}")
    if mode == "search":
        found = search(z_max, prune)
    else:
        found = brute_force(w_max)
    if len(found) != count:
        return f"{mode} recomputes {len(found)} candidates"
    return None


_CHECKERS = {
    "triple": _recomputed(_ordered_triple),
    "prop1": _check_prop1,
    "norm": _check_norm,
    "lemma2": _check_lemma2,
    "constants": _recomputed(lambda rec, *_: constants_record(
        verify_numeric_window(rec.get("precision_bits")))),
    "growth": _recomputed(lambda rec, *bits: growth_record(verify_growth(
        rec.get("n_max"), *bits))),
    "field": _recomputed(
        lambda rec, *_: field_record(field_identity_report())),
    "expansion": _check_expansion,
    "search-summary": _check_search_summary,
}


def check_record(rec: VerificationRecord,
                 precision_bits: int = DEFAULT_PRECISION,
                 max_precision_bits: int = MAX_PRECISION) -> tuple[bool, str]:
    """Re-derive the record's claim from scratch; (True, "ok") when the
    recomputation agrees.  Adaptive recomputations start at precision_bits,
    and one that reaches max_precision_bits undecided raises
    PrecisionFailure.

    Work that a run of records shares lives in module caches: ``search``
    keeps one sweep of the sequence for both prune flags, bounded by
    ``SEARCH_Z_MAX_CAP``; ``_prop1_floor`` keeps one floor per z; and
    ``expansion_error`` keeps the last MAX_ORDER + 1 errors, so a run of
    orders 0..t for one triple computes each order once.
    """
    problem = _CHECKERS[rec.kind](rec, precision_bits, max_precision_bits)
    if problem is None:
        return True, "ok"
    return False, problem
