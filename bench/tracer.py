"""Spans and counters around the library's public functions, installed from
outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``triboverify`` module that binds it (``gcdbound.norm6`` as well as
``splitfield.norm6``), so no call path bypasses the span.  Methods are
wrapped on their class.  Three kinds of hook exist:

* spans, for the public functions named in ``SPANS``: name, start, end,
  parent, plus the enclosure time spent directly inside the span and the
  precision figures seen under it;
* counters, for functions called too often to keep one span per call
  (``COUNTERS``);
* enclosure operations, which are counted and timed in aggregate: the
  outermost enclosure call is timed and its duration charged to the open
  span, so a span's self time excludes enclosure work.

Spans stay in memory in flat arrays until ``write`` stores them in one
file at the end; ``read_spans``/``summarize`` turn that file into
per-name calls, inclusive and self times.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, qualified name) -> span name; methods are "Class.method"
SPANS = {
    ("cli", "run"): "cli.run",
    ("constants", "constants"): "constants.constants",
    ("constants", "cmp_alpha_power"): "constants.cmp_alpha_power",
    ("tribonacci", "TribTable.first_index"): "tribonacci.first_index",
    ("tribonacci", "TribTable.values_upto"): "tribonacci.values_upto",
    ("splitfield", "norm3"): "splitfield.norm3",
    ("splitfield", "norm6"): "splitfield.norm6",
    ("splitfield", "CubicElement.to_field"): "splitfield.to_field",
    ("splitfield", "is_square_in_K"): "splitfield.is_square_in_K",
    ("gcdbound", "norm_witness"): "gcdbound.norm_witness",
    ("gcdbound", "prop1_holds"): "gcdbound.prop1_holds",
    ("gcdbound", "factor_bounds"): "gcdbound.factor_bounds",
    ("expansion", "expansion_error"): "expansion.expansion_error",
    ("triples", "search"): "triples.search",
    ("triples", "brute_force"): "triples.brute_force",
    ("records", "emit_records"): "records.emit_records",
    ("records", "read_records"): "records.read_records",
    ("records", "check_record"): "records.check_record",
}

COUNTERS = {
    ("constants", "alpha_power"): "constants.alpha_power",
    ("triples", "admissible"): "triples.admissible",
    ("triples", "uvw_from_xyz"): "triples.uvw_from_xyz",
    ("expansion", "expansion_terms"): "expansion.expansion_terms",
}

# enclosure methods timed in aggregate; the value names the call counter
ENCLOSURE_METHODS = {
    "Enclosure": {
        "__mul__": "enclosure.mul", "__rmul__": "enclosure.mul",
        "rounded": "enclosure.rounded", "sqrt": "enclosure.sqrt",
        "__add__": None, "__radd__": None, "__sub__": None,
        "__rsub__": None, "__neg__": None, "__truediv__": None,
        "inv": None, "square": None, "abs": None,
    },
    "ComplexEnclosure": {
        "__mul__": "enclosure.cmul", "__rmul__": "enclosure.cmul",
        "__add__": None, "__radd__": None, "__sub__": None,
        "__rsub__": None, "__neg__": None, "__truediv__": None,
        "inv": None, "square": None, "abs": None, "abs2": None,
        "conj": None, "rounded": None,
    },
}

_SPAN_FIELDS = (("name", "I"), ("parent", "i"), ("start", "d"),
                ("end", "d"), ("enc", "d"), ("first_bits", "I"),
                ("max_bits", "I"), ("escalated", "B"))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "triboverify"
                                  or name.startswith("triboverify."))]


def rebind(original, wrapper) -> int:
    """Point every module-level binding of ``original`` at ``wrapper``."""
    bound = 0
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound += 1
    return bound


def _arg(args, kwargs, pos, key, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


class Tracer:
    """In-memory span store plus counters; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for field, code in _SPAN_FIELDS:
            setattr(self, field, array.array(code))
        self.top = -1
        self.counts: Counter = Counter()
        self.figures: dict = {"witness_primes": [], "expansion_terms": {}}
        self.missing: list[str] = []
        self._enc_depth = 0
        self._constants_seen: set[int] = set()
        self.lib = None
        self.originals: dict = {}

    # -- span store -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def note_bits(self, bits: int) -> None:
        """Record a precision request against the open span."""
        i = self.top
        if i < 0:
            self.counts["root.max_bits"] = max(self.counts["root.max_bits"],
                                               bits)
            return
        first = self.first_bits[i]
        if not first:
            self.first_bits[i] = bits
        elif bits != first:
            self.escalated[i] = 1
        if bits > self.max_bits[i]:
            self.max_bits[i] = bits

    def span(self, fn, name: str, suffix=None, before=None, after=None):
        nid = self.name_id(name)
        names, parent, start, end = (self.name, self.parent, self.start,
                                     self.end)
        enc, first, maxb, esc = (self.enc, self.first_bits, self.max_bits,
                                 self.escalated)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(start)
            names.append(nid if suffix is None
                         else self.name_id(f"{name}.{suffix(args, kwargs)}"))
            parent.append(self.top)
            enc.append(0.0)
            first.append(0)
            maxb.append(0)
            esc.append(0)
            self.top = i
            t0 = perf_counter()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                self.top = parent[i]
            if after is not None:
                after(args, kwargs, result, end[i] - t0)
            return result

        return wrapper

    def counter(self, fn, name: str, before=None, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def enclosure_op(self, fn, counter: str | None):
        counts = self.counts
        enc = self.enc

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if self._enc_depth:
                return fn(*args, **kwargs)
            self._enc_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._enc_depth = 0
                counts["enclosure.time"] += dt
                if self.top >= 0:
                    enc[self.top] += dt

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every hook; a hook whose target is gone is listed in
        ``missing`` so a rename is caught instead of reading as zero."""
        self.lib = {m: importlib.import_module(f"triboverify.{m}")
                    for m in ("cli", "constants", "enclosure", "expansion",
                              "gcdbound", "records", "splitfield",
                              "tribonacci", "triples")}
        hooks = self._special_hooks(self.lib["constants"].DEFAULT_PRECISION)
        for (mod, qual), name in SPANS.items():
            self._wrap(mod, qual, name, lambda fn, n=name:
                       self.span(fn, n, **hooks.get(n, {})))
        for (mod, qual), name in COUNTERS.items():
            self._wrap(mod, qual, name, lambda fn, n=name:
                       self.counter(fn, n, **hooks.get(n, {})))
        for cls, methods in ENCLOSURE_METHODS.items():
            for meth, counter in methods.items():
                self._wrap("enclosure", f"{cls}.{meth}", f"{cls}.{meth}",
                           lambda fn, c=counter: self.enclosure_op(fn, c))

    def _wrap(self, mod: str, qual: str, name: str, make) -> None:
        owner = self.lib[mod]
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{mod}.{qual}")
            return
        self.originals[name] = original
        wrapper = make(original)
        if path:
            setattr(owner, attr, wrapper)
        elif not rebind(original, wrapper):
            self.missing.append(f"{mod}.{qual}")

    def _special_hooks(self, default_bits: int) -> dict:
        """Per-hook extras: span name suffixes and the figures read from
        arguments and results."""
        counts, figures = self.counts, self.figures

        def constants_before(args, kwargs):
            self.note_bits(_arg(args, kwargs, 0, "precision_bits",
                                default_bits))

        def constants_after(args, kwargs, result, elapsed):
            # the cache is keyed by precision and never evicts, so the first
            # request for a precision in a fresh process is the miss
            bits = _arg(args, kwargs, 0, "precision_bits", default_bits)
            if bits not in self._constants_seen:
                self._constants_seen.add(bits)
                counts["constants.build_s"] += elapsed

        def alpha_power_before(args, kwargs):
            self.note_bits(_arg(args, kwargs, 1, "precision_bits",
                                default_bits))

        def terms_after(args, kwargs, result):
            order = _arg(args, kwargs, 0, "order", None)
            figures["expansion_terms"][order] = len(result.terms)

        def square_after(args, kwargs, result, elapsed):
            figures["witness_primes"].append(
                [w[0] if w else None
                 for w in (result.witness_self, result.witness_twisted)])

        def emit_after(args, kwargs, result, elapsed):
            path = _arg(args, kwargs, 0, "path", None)
            counts["records.bytes_out"] += os.path.getsize(path)

        def order_suffix(args, kwargs):
            return f"t{_arg(args, kwargs, 3, 'order', '?')}"

        def kind_suffix(args, kwargs):
            return _arg(args, kwargs, 0, "rec", None).kind

        return {
            "constants.constants": {"before": constants_before,
                                    "after": constants_after},
            "constants.alpha_power": {"before": alpha_power_before},
            "expansion.expansion_terms": {"after": terms_after},
            "splitfield.is_square_in_K": {"after": square_after},
            "records.emit_records": {"after": emit_after},
            "expansion.expansion_error": {"suffix": order_suffix},
            "records.check_record": {"suffix": kind_suffix},
        }

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Store spans, counters and figures: a JSON header line followed by
        the raw span arrays."""
        terms = self.originals.get("expansion.expansion_terms")
        if terms is not None:
            self.figures["expansion_terms_cache"] = (
                terms.cache_info()._asdict())
        self.figures["table_len"] = len(
            self.lib["tribonacci"].default_table())
        header = {
            "names": self.names,
            "count": len(self.start),
            "counts": dict(self.counts),
            "figures": self.figures,
            "missing": self.missing,
            "fields": [[f, c] for f, c in _SPAN_FIELDS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _SPAN_FIELDS:
                getattr(self, field).tofile(fh)


def read_spans(path: str):
    """Inverse of ``Tracer.write``: (header, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        spans = {}
        for field, code in header["fields"]:
            arr = array.array(code)
            arr.fromfile(fh, n)
            spans[field] = arr
    return header, spans


def summarize(header: dict, spans: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, escalated
    calls and the highest precision requested directly under it.

    Self time is the span's duration minus its children's durations minus
    the enclosure time charged directly to it.
    """
    names = header["names"]
    parent, start, end, enc = (spans["parent"], spans["start"],
                               spans["end"], spans["enc"])
    n = header["count"]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, dict] = {}
    for i in range(n):
        name = names[spans["name"][i]]
        s = out.get(name)
        if s is None:
            s = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                             "escalations": 0, "max_bits": 0}
        dur = end[i] - start[i]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i] - enc[i]
        s["escalations"] += spans["escalated"][i]
        s["max_bits"] = max(s["max_bits"], spans["max_bits"][i])
    return out
