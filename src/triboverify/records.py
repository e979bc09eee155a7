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

A record's payload holds only the values (ints, Fractions, tuples, bools,
a checks dict), in ``_FIELDS`` order; the keys live in ``_FIELDS`` alone.
``to_line`` and ``from_line`` are the only code that knows the wire
format, and a field's codec is its one rule for both: its ``form``, a
regex for that text, the function that reads it, and the value's range.
``from_line`` matches a line with its kind's pattern, built from those
regexes, so a match is canonical by construction, and applies the ranges;
for any other line it names the first field that departs from the form.
Only a checks object, flat ``"key":true`` or ``false`` pairs by its
pattern, goes through ``json.loads``, and it must write back unchanged.
``read_records`` strips only the newline that ``emit_records`` ends each
line with, so any other byte around a record, or a blank line, is
malformed.  It reads its file as text, in blocks of whole lines, and
matches each line with the same pattern and reads as ``from_line``,
which takes every line the scan does not, a line with a byte that is not
UTF-8 among them; it yields each record as it reads it, so a run over a
file holds one block of lines and one record at a time.

Each record is a self-describing certificate: ``check_record`` re-derives
its claim from scratch and reports agreement.  It is the one path for a
single record and for a whole file alike: what a run of records shares
lives in module caches.  A prop1 check, most of the records of a
``verify all`` file, is integer work: it reads T_y and T_z off the
sequence table's own list (``TribTable.extend_to``), takes
gcd(T_y - 1, T_z - 1) inline and compares it with one floor per z
(``_prop1_floor``), escalating to an enclosure only above that floor.
"""

from __future__ import annotations

import functools
import json
import re
from collections import namedtuple
from fractions import Fraction
from math import floor, gcd, isqrt
from typing import Any, Iterable, Iterator

from .constants import (DEFAULT_PRECISION, MAX_PRECISION, alpha_power,
                        verify_growth, verify_numeric_window)
from .enclosure import Enclosure, PrecisionFailure, precision_ladder
from .expansion import (MAX_ORDER, DecayReport, decay_verdicts,
                        expansion_error)
from .gcdbound import GcdWitness, _prop1_verdict, norm_witness
from .splitfield import (ALPHA_C, WITNESS_PRIME_BOUND, CubicElement,
                         FieldElement, SquareCertificate, _clear_denominators,
                         _legendre, field_identity_report, is_square_in_K)
from .tribonacci import default_table, trib_fast
from .triples import brute_force, search

SCHEMA_VERSION = 1


class RecordFormatError(ValueError):
    """A line failed to parse as a well-formed record."""


# ---------------------------------------------------------------------------
# field codecs.  ``what`` names the field's values, for an error.  ``form``
# is its one spelling, a pair (piece, convert): piece is "%s" or '"%s"', and
# the value, passed through convert unless that is None, fills it in.
# ``pattern``, a regex without groups, matches the text inside the piece,
# ``read`` turns that text into the value or raises ValueError, and
# ``bounds`` is the (lo, hi) the value lies in, or None.
# ---------------------------------------------------------------------------

_Codec = namedtuple("_Codec", "what form pattern read bounds",
                    defaults=(None,))

# what "%s" is filled with: the value itself, with its str
_AS_STR = ("%s", None)
_QUOTED = ('"%s"', None)

# str of an int: no sign on zero, no leading zero; [0-9], because \d would
# also match the other Unicode digits, which int() reads
_INT_PATTERN = "0|-?[1-9][0-9]*"


def _spelt(form, value) -> str:
    """The text of value in a field of the given form."""
    piece, convert = form
    return piece % (value if convert is None else convert(value),)


def _group(form, pattern: str, opening: str = "(") -> str:
    """The regex of a field's text in its piece: captured, or "(?:"."""
    return form[0] % f"{opening}{pattern})"


def _value(codec: _Codec, text: str):
    """The value of a field's text; ValueError also when out of bounds."""
    value = codec.read(text)
    if codec.bounds and not codec.bounds[0] <= value <= codec.bounds[1]:
        raise ValueError(f"{text} is out of range")
    return value


def _int(lo: int, hi: float = float("inf")) -> _Codec:
    return _Codec(f"an integer {lo} <= n <= {hi}", _AS_STR, _INT_PATTERN, int,
                  (lo, hi))


def _one_of(*options: str) -> _Codec:
    return _Codec(f"one of {', '.join(options)}", _QUOTED,
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
    """null, or a value of codec, within its bounds.  Every nullable field
    here is unquoted, so its piece stays "%s"."""
    return _Codec(f"null or {codec.what}", ("%s", lambda v: (
        "null" if v is None else _spelt(codec.form, v))),
        f"null|{codec.pattern}",
        lambda text: None if text == "null" else _value(codec, text))


def _list(*codecs: _Codec) -> _Codec:
    """A list of exactly len(codecs) items, read to a tuple."""
    def items(opening):
        return ",".join(_group(c.form, c.pattern, opening) for c in codecs)
    captured = items("(")

    def read(text):
        # text has matched the pattern, so it matches with each item captured
        return tuple(map(_value, codecs,
                         re.fullmatch(captured, text[1:-1]).groups()))
    return _Codec(f"a list of {len(codecs)} items",
                  ("%s", lambda v: "[%s]" % ",".join(
                      _spelt(c.form, x) for c, x in zip(codecs, v))),
                  rf"\[{items('(?:')}\]", read)


def _list_of(codec: _Codec) -> _Codec:
    """A list of any length, read to a tuple."""
    item, captured = (_group(codec.form, codec.pattern, opening)
                      for opening in ("(?:", "("))

    def read(text):
        # text has matched the pattern, so its items lie one comma apart and
        # the search for each finds it where it starts
        return tuple(_value(codec, m[1])
                     for m in re.finditer(captured, text[1:-1]))
    return _Codec(f"a list, each item {codec.what}",
                  ("%s", lambda v: "[%s]" % ",".join(_spelt(codec.form, x)
                                                     for x in v)),
                  rf"\[(?:{item}(?:,{item})*)?\]", read)


_dump_checks = functools.partial(json.dumps, separators=(",", ":"))
# "key":true or "key":false, the key any JSON string: no nesting, so
# json.loads never recurses on a checks object
_CHECK = r'"(?:[^"\\]|\\.)*":(?:true|false)'


def _read_checks(text: str) -> dict[str, bool]:
    """The checks object that text spells as ``_dump_checks`` writes it."""
    checks = json.loads(text)
    if _dump_checks(checks) != text:
        raise ValueError(f"{text} is not in the form json.dumps writes")
    return checks


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
# brute_force(10**6) about 1 ms, verify_numeric_window(4096) about 0.03 s
# (16384 bits take about 0.3 s) and verify_growth(10**4) about 0.3 s.  A
# prop1 record with z <= 2000 checks in about 10 ms in a fresh process,
# nearly all of it the enclosure of alpha**z behind its floor (z = 10**4
# took 0.09 s), a norm record in about 5 ms, and an expansion record at
# order 8 with z <= 100 in about 0.12 s (z = 150 took 0.1 s); the window
# and expansion figures are medians of six fresh processes.  The CLI
# refuses to write records past these.
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

_BOOL = _Codec("true or false",
               ("%s", {True: "true", False: "false"}.__getitem__),
               "true|false", "true".__eq__)
_FLAG = _nullable(_BOOL)
_DECIMAL = _Codec("a decimal string", _QUOTED, _INT_PATTERN, int)
_RATIONAL = _Codec('a string "p" or "p/q" in lowest terms', _QUOTED,
                   f"(?:{_INT_PATTERN})(?:/[1-9][0-9]*)?", _read_rational)
_INDEX = _int(0)
_TRIPLE_VALUE = _Codec(f"a decimal string for an integer "
                       f"1 <= n < T_{SEARCH_Z_MAX_CAP}", _QUOTED,
                       _INT_PATTERN, int, (1, TRIPLE_VALUE_CAP - 1))
_FIRST_INDEX = _nullable(_INDEX)
_PAIR_INDEX = _int(4, PAIR_Z_MAX_CAP)
_EXPANSION_INDEX = _int(5, EXPANSION_INDEX_CAP)
_CHECKS = _Codec("an object of booleans", ("%s", _dump_checks),
                 rf"\{{(?:{_CHECK}(?:,{_CHECK})*)?\}}", _read_checks)
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
        """The record of a line in the form ``to_line`` writes, every value
        in range, or RecordFormatError naming where the line departs."""
        # the kind's pattern checks the head, so a slice of any line will do
        kind = line[len(_HEAD):line.find('"', len(_HEAD))]
        if kind in _FIELDS:
            fullmatch, record = _template(kind)
            m = fullmatch(line)
            if m is not None:
                try:
                    return record(m)
                except ValueError:
                    pass
        raise _rejection(line, kind)


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
    """(fullmatch, record) for a kind: the pattern matches exactly the
    lines ``to_line`` writes for it, one group per field, and record(m) is
    the record of a match m, each group read by its field's codec, or
    ValueError, also for a value out of its bounds.  Compiled on first
    use, so that a run which only writes never pays."""
    fields = _FIELDS[kind]
    pattern = re.escape(f'{_HEAD}{kind}"') + "".join(
        re.escape(f',"{key}":') + _group(codec.form, codec.pattern)
        for key, codec in fields)
    # record is built from source, as namedtuple builds its __new__: one
    # call per line, where a loop over the fields took 1.4 to 2.1 times as
    # long (prop1, norm and triple lines, Python 3.10 to 3.12); the source
    # holds only indices, and the codecs are bound by name
    names = {"new": tuple.__new__, "cls": VerificationRecord, "kind": kind}
    reads, tests = [], ["True"]
    for i, (_, codec) in enumerate(fields):
        names[f"read{i}"] = codec.read
        reads.append(f"read{i}(g[{i}]), ")
        if codec.bounds is not None:
            names[f"lo{i}"], names[f"hi{i}"] = codec.bounds
            tests.append(f"lo{i} <= v[{i}] <= hi{i}")
    exec(f"def record(m):\n g = m.groups()\n v = ({''.join(reads)})\n"
         f" if {' and '.join(tests)}:\n  return new(cls, (kind, v))\n"
         " raise ValueError(v)", names)
    return re.compile(pattern + "}").fullmatch, names["record"]


def _rejection(line: str, kind: str) -> RecordFormatError:
    """The error for a line of the given kind that ``from_line`` refuses:
    its head, or the first field that departs from the form ``to_line``
    writes, where a field's text must end at the next key or the brace."""
    if not line.startswith(_HEAD) or kind not in _FIELDS:
        return RecordFormatError(f"needs schema {SCHEMA_VERSION} and a record "
                                 f'kind, as in {_HEAD}prop1", got '
                                 f"{_excerpt(line)}")
    pos = len(_HEAD) + len(kind) + 1
    for key, codec in _FIELDS[kind]:
        sep = f',"{key}":'
        if not line.startswith(sep, pos):
            return RecordFormatError(f"{kind} {key}: missing or out of "
                                     f"order, got {_excerpt(line[pos:])}")
        pos += len(sep)
        m = re.compile(_group(codec.form, codec.pattern)
                       + r'(?=,"|\}?\Z)').match(line, pos)
        try:
            if m is not None:
                _value(codec, m[1])
                pos = m.end()
                continue
        except ValueError:
            pass
        return RecordFormatError(f"{kind} {key}: needs {codec.what}, got "
                                 f"{_excerpt(m[0] if m else line[pos:])}")
    return RecordFormatError(f"{kind}: needs }} to end the line, got "
                             f"{_excerpt(line[pos:])}")


def _excerpt(text: str) -> str:
    """text, cut to 60 characters, for an error message; quoted unless it
    is printable, and neither empty nor spaced at an end."""
    text = text if len(text) <= 60 else text[:57] + "..."
    plain = text.isprintable() and text.strip() == text != ""
    return text if plain else repr(text)


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


# characters that read_records asks of its file at a time, before it reads
# on to the end of the line (bytes, in an ASCII file): blocks of 16 KB to
# 1 MB read the full verify-all file equally fast, but 1 MB blocks raised
# the peak RSS of reading it 7 MB above the import's, and 64 KB ones by
# 0.1 MB at most
_BLOCK = 1 << 16


def _line_record(line: str, lineno: int) -> VerificationRecord:
    """``from_line`` of one line, given with its newline if it has one,
    with its line number on an error.  A line that is not ASCII is encoded
    back to its bytes (``read_records`` reads a byte that is not UTF-8 as a
    lone surrogate) and decoded strictly with its newline, as a file read
    line by line decodes it, so a bad byte gets the same error."""
    try:
        if not line.isascii():
            line = line.encode("utf-8", "surrogateescape").decode("utf-8")
        return VerificationRecord.from_line(line.removesuffix("\n"))
    except (UnicodeDecodeError, RecordFormatError) as exc:
        raise RecordFormatError(f"line {lineno}: {exc}") from exc


def read_records(path) -> Iterator[VerificationRecord]:
    """The records of a file, one at a time as they are read, so that a
    caller holds one block of lines and the record in hand.

    Lines end at "\\n" alone, so any other byte around a record, or a
    blank line, is malformed.  Each block is ``_BLOCK`` characters and the
    rest of the line they end in, so a line longer than a block is read in
    one pass, and every block is scanned by ``_scan``.  A byte that is not
    UTF-8 is decoded to a lone surrogate, which no record's codec takes, so
    its line goes to ``_line_record`` and the error names the line."""
    lineno = 0   # lines before the block
    with open(path, encoding="utf-8", errors="surrogateescape",
              newline="\n") as fh:
        while text := fh.read(_BLOCK) + fh.readline():
            yield from _scan(text, lineno)
            lineno += text.count("\n")


def _scan(text: str, lineno: int) -> Iterator[VerificationRecord]:
    """The records of the lines of text, the first of them line lineno + 1
    of its file.  Each line is matched whole with the pattern of the kind
    before it, and its record read from the match, as ``from_line`` does
    both; a line of another kind switches the pattern.  A line the scan
    does not take goes through ``from_line``, so the records, the errors
    and their line numbers are those of one ``from_line`` call per line."""
    pos, size = 0, len(text)
    kind = fullmatch = None
    while pos < size:
        end = text.find("\n", pos)
        if end < 0:
            end = size
        # up to the newline alone: a checks key may hold a raw "\n"
        m = fullmatch and fullmatch(text, pos, end)
        if m:
            try:
                rec = record(m)
            except ValueError:
                pass
            else:
                yield rec
                pos = end + 1
                continue
        else:
            # the kind the line names, if its head has room for one; the
            # pattern checks the head itself
            head = pos + len(_HEAD)
            new = text[head:max(head, text.find('"', head, end))]
            if new != kind and new in _FIELDS:
                kind = new
                fullmatch, record = _template(kind)
                continue
        yield _line_record(text[pos:end + 1],
                           lineno + text.count("\n", 0, pos) + 1)
        pos = end + 1


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
    """r_z = floor((lo**3)**(1/4)), for lo the lower end of the enclosure
    of alpha**z at precision_bits.  lo < alpha**z, which is irrational,
    and 0 < lo, so r_z**4 <= lo**3 < alpha**(3*z) and d**4 < alpha**(3*z)
    for every d <= r_z.  alpha**z is a third of the products that
    alpha**(3*z) would take from the power table.  The cache has room for
    every z a record can name at one precision."""
    return isqrt(isqrt(floor(alpha_power(z, precision_bits).lo ** 3)))


def _check_prop1(rec: VerificationRecord, precision_bits: int,
                 max_precision_bits: int) -> str | None:
    y, z, recorded_gcd, recorded_ok = rec.payload
    if not y < z:
        raise RecordFormatError(f"prop1 needs y < z, got y={y}, z={z}")
    # the sequence table's own list; the codec caps z at PAIR_Z_MAX_CAP
    t = default_table().extend_to(z)
    d = gcd(t[y] - 1, t[z] - 1)
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
    y, z, d, norm3, divides, tight = rec.payload
    if not y < z:
        raise RecordFormatError(f"norm needs y < z, got y={y}, z={z}")
    w = norm_witness(y, z)
    if w.d != d:
        return f"gcd recomputes to {w.d}"
    if w.norm3_value != norm3:
        return f"norm recomputes to {w.norm3_value}"
    if divides is not True:
        return "divides must hold in any witness"
    if w.tight != tight:
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
    # and at most two rungs past the first recomputation narrower than the
    # record, where the genuine records tested are enclosed already; an
    # endpoint forged within 2^-b of the error costs the climb to the
    # record's own width and two rungs, not b bits
    bits = precision_bits
    fresh = expansion_error(x, y, z, t, bits, max_precision_bits)
    past = 0
    for rung in precision_ladder(precision_bits, max_precision_bits)[1:]:
        if (recorded.encloses(fresh) or not fresh.intersects(recorded)
                or past == 2):
            break
        if past or fresh.width() < recorded.width():
            past += 1
        bits = rung
        fresh = expansion_error(x, y, z, t, bits, max_precision_bits)
    if not fresh.intersects(recorded):
        return (f"recomputed error [{float(fresh.lo)}, {float(fresh.hi)}] "
                "misses the recorded interval")
    if not recorded.encloses(fresh):
        raise PrecisionFailure(
            f"recomputed error at order {t} neither inside nor apart from "
            f"the recorded interval within {bits} bits")
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
    ``SEARCH_Z_MAX_CAP``; a prop1 record grows the sequence table to at
    most index ``PAIR_Z_MAX_CAP``; ``_prop1_floor`` keeps one floor per z;
    and ``expansion_error`` keeps the last MAX_ORDER + 1 errors, so a run
    of orders 0..t for one triple computes each order once.
    """
    problem = _CHECKERS[rec.kind](rec, precision_bits, max_precision_bits)
    if problem is None:
        return True, "ok"
    return False, problem
