"""Record format: byte-stable lines, round trips, independent re-checking;
CLI: exit codes, settings from the arguments alone, frozen record bytes."""

import argparse
import functools
import hashlib
import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from triboverify import (expansion, gcdbound, records, splitfield,
                         tribonacci)
from triboverify.cli import build_parser, run
from triboverify.constants import (DEFAULT_PRECISION, Cmp, cmp_alpha_power,
                                   verify_growth, verify_numeric_window)
from triboverify.enclosure import Enclosure, precision_ladder
from triboverify.expansion import MAX_ORDER, decay_report, expansion_error
from triboverify.gcdbound import norm_witness
from triboverify.records import (BRUTE_W_MAX_CAP, CONSTANTS_PRECISION_CAP,
                                 EXPANSION_INDEX_CAP, GROWTH_N_MAX_CAP,
                                 LEMMA2_CASES, PAIR_Z_MAX_CAP,
                                 SEARCH_Z_MAX_CAP, TRIPLE_VALUE_CAP,
                                 RecordFormatError,
                                 VerificationRecord, check_record,
                                 constants_record, emit_records,
                                 expansion_records, field_record,
                                 growth_record,
                                 lemma2_record, membership_triple_record,
                                 norm_record, prop1_record, read_records,
                                 search_summary_record)
from triboverify.splitfield import (ALPHA_C, CubicElement,
                                    field_identity_report, is_square_in_K)
from triboverify.tribonacci import trib, trib_fast
from triboverify.triples import brute_force, search

ROOT = Path(__file__).resolve().parents[1]

# the package's ``constants`` attribute is the function of that name
constants_module = importlib.import_module("triboverify.constants")


def test_membership_record_bytes():
    line = membership_triple_record(1, 3, 6).to_line()
    assert line == ('{"schema":1,"kind":"triple","u":"1","v":"3","w":"6",'
                    '"x":5,"y":6,"z":null,"ok":false}')


def test_prop1_record_bytes():
    line = prop1_record(6, 7, 6, True).to_line()
    assert line == '{"schema":1,"kind":"prop1","y":6,"z":7,"gcd":"6","bound_ok":true}'


def test_norm_record_bytes():
    line = norm_record(norm_witness(6, 7)).to_line()
    assert line == ('{"schema":1,"kind":"norm","y":6,"z":7,"d":"6",'
                    '"norm3":"-216","divides":true,"tight":true}')


def test_round_trip():
    for rec in (membership_triple_record(1, 3, 6),
                prop1_record(6, 7, 6, True),
                norm_record(norm_witness(5, 7)),
                search_summary_record("search", 0, z_max=8,
                                      use_gcd_prune=False)):
        again = VerificationRecord.from_line(rec.to_line())
        assert again == rec
        assert again.to_line() == rec.to_line()


def test_big_integers_survive_as_strings():
    w = norm_witness(40, 45)
    rec = norm_record(w)
    data = json.loads(rec.to_line())
    assert isinstance(data["norm3"], str)
    assert int(data["norm3"]) == w.norm3_value


def test_malformed_lines_rejected():
    with pytest.raises(RecordFormatError):
        VerificationRecord.from_line("not json")
    with pytest.raises(RecordFormatError):
        VerificationRecord.from_line('{"kind":"prop1","schema":1}')
    with pytest.raises(RecordFormatError):
        VerificationRecord.from_line('{"schema":2,"kind":"prop1"}')
    with pytest.raises(RecordFormatError):
        VerificationRecord.from_line('{"schema":1,"kind":"nope"}')
    for values in ((7, 6, 6), (6, 7, 6, True, True)):
        with pytest.raises(RecordFormatError, match="needs 4 values"):
            VerificationRecord("prop1", values)
    with pytest.raises(RecordFormatError, match="unknown record kind"):
        VerificationRecord("nope", ())


def test_check_record_accepts_genuine():
    for rec in (membership_triple_record(1, 3, 6),
                prop1_record(6, 7, 6, True),
                norm_record(norm_witness(6, 7))):
        ok, message = check_record(rec)
        assert ok, message


def test_check_record_catches_tampering():
    line = prop1_record(6, 7, 6, True).to_line()
    forged = VerificationRecord.from_line(line.replace('"gcd":"6"',
                                                       '"gcd":"7"'))
    ok, message = check_record(forged)
    assert not ok and "gcd" in message

    line = norm_record(norm_witness(6, 7)).to_line()
    forged = VerificationRecord.from_line(line.replace('"tight":true',
                                                       '"tight":false'))
    ok, _ = check_record(forged)
    assert not ok

    line = membership_triple_record(1, 3, 6).to_line()
    forged = VerificationRecord.from_line(line.replace('"ok":false',
                                                       '"ok":true'))
    ok, _ = check_record(forged)
    assert not ok


def test_emit_and_read(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [prop1_record(y, 9, 1, True) for y in range(4, 9)]
    emit_records(path, records)
    assert list(read_records(path)) == records
    text = path.read_text()
    assert text.endswith("\n") and "\r" not in text

    path.write_text(text + "garbage\n")
    with pytest.raises(RecordFormatError) as err:
        list(read_records(path))
    assert str(err.value).startswith("line 6: ")


def test_an_interrupted_write_leaves_no_file_that_passes(tmp_path, capsys,
                                                          monkeypatch):
    # a Ctrl-C at the 3000th record of verify all --quick must not leave
    # the 2999 records before it, which check-records would pass
    to_line = VerificationRecord.to_line
    calls = 0

    def interrupted(rec):
        nonlocal calls
        calls += 1
        if calls == 3000:
            raise KeyboardInterrupt
        return to_line(rec)

    monkeypatch.setattr(VerificationRecord, "to_line", interrupted)
    out = tmp_path / "quick.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run(["verify", "all", "--quick", "--out", str(out)])
    monkeypatch.undo()
    assert calls == 3000 and out.read_bytes() == b""
    capsys.readouterr()
    assert run(["check-records", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no records in {out}\n"

    # an output that is not a regular file is left alone, and the
    # interrupt still goes on
    def cut_short():
        yield prop1_record(6, 7, 6, True)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        emit_records(os.devnull, cut_short())


def test_run_config_validation(capsys):
    for bits, max_bits, message in (
            (None, 0, "precision_bits exceeds max_precision_bits"),
            (64, 32, "precision_bits exceeds max_precision_bits"),
            (7, 7, "precision_bits must be >= 8")):
        argv = ["verify", "norms", "--z-max", "20",
                "--max-precision-bits", str(max_bits)]
        if bits is not None:
            argv += ["--precision-bits", str(bits)]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert run(["verify", "norms", "--z-max", "20", "--precision-bits", "8",
                "--max-precision-bits", "8"]) == 0


def test_cli_refuses_precision_below_floor(tmp_path, capsys):
    # constants() needs at least 8 bits; below that every battery that
    # builds them used to die with a traceback
    path = tmp_path / "r.jsonl"
    emit_records(path, [prop1_record(6, 7, 6, True)])
    for argv in (["verify", "norms", "--z-max", "20"],
                 ["check-records", str(path)]):
        assert run(argv + ["--precision-bits", "7",
                           "--max-precision-bits", "7"]) == 2
        assert "precision_bits must be >= 8" in capsys.readouterr().err
        assert run(argv + ["--precision-bits", "8",
                           "--max-precision-bits", "8"]) == 0
        capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert run(["gen", "--max-index", "10"]) == 0
    assert run(["member", "81", "82"]) == 0
    assert run(["search", "--z-max", "10"]) == 0
    assert run(["verify", "prop1", "--z-max", "20"]) == 0
    assert run(["verify", "field"]) == 0
    assert run(["verify", "lemma2"]) == 0
    assert run(["no-such-command"]) == 2
    assert run(["verify", "prop1", "--z-max", "0"]) == 2
    assert run(["check-records", str(tmp_path / "missing.jsonl")]) == 2
    capsys.readouterr()

    # the settings come from the arguments alone
    monkeypatch.setenv("TRIBOVERIFY_PRECISION_BITS", "banana")
    assert run(["verify", "field"]) == 0
    capsys.readouterr()


def test_cli_gen_refuses_an_index_past_the_growth_cap(capsys):
    # past the cap a value soon outgrows int's default of 4300 digits for
    # str, so the refusal must come before the first line is printed
    assert len(str(trib(GROWTH_N_MAX_CAP))) == 2646
    assert run(["gen", "--max-index", str(GROWTH_N_MAX_CAP + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --max-index must lie in 0..{GROWTH_N_MAX_CAP}\n"


def test_cli_member_output(capsys):
    assert run(["member", "81", "3", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["81 10", "3 -", "0 0"]


# sha256 of the record files written before the sweeps moved into the
# library's pair generators
_FROZEN_RECORD_SHA256 = {
    "prop1": "25566188c861a750b96284914725dffaf66eafc8d094efaaaefb60a05fb07c35",
    "norms": "849f9f19885d093aca7a7ffefd790c1f8b32094710991021470c582b156f88de",
    "lemma2": "2158bbf350aeff9b1094464711dca44311857fe04c3947a439295b54d1d40c97",
    "field": "eb744971af2f013726a821a66696d0222bbcd7ca85fa8093ab9a0b8d4959a832",
    "constants":
        "127021f733c9464aaff1912280421e06d1015db2f68bd858ef1c4bc65c033ec8",
}


def test_cli_records_deterministic_across_jobs(tmp_path, capsys):
    for check, z_max in (("prop1", "40"), ("norms", "30")):
        path = tmp_path / f"{check}.jsonl"
        assert run(["verify", check, "--z-max", z_max,
                    "--out", str(path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _FROZEN_RECORD_SHA256[check]

        assert run(["check-records", str(path)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("check", ["lemma2", "field", "constants"])
def test_cli_exact_battery_records_frozen(tmp_path, capsys, check):
    # the records of the batteries built on the splitting field and the
    # cached constants, at the default precision
    path = tmp_path / f"{check}.jsonl"
    assert run(["verify", check, "--out", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _FROZEN_RECORD_SHA256[check]
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()


def test_cli_rejects_jobs_flag(capsys):
    assert run(["verify", "prop1", "--z-max", "9", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_check_records_flags_forgery(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    emit_records(path, [prop1_record(6, 7, 6, True)])
    text = path.read_text().replace('"gcd":"6"', '"gcd":"12"')
    path.write_text(text)
    assert run(["check-records", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


_PAIR_LINES = {
    "norm": ('{"schema":1,"kind":"norm","y":6,"z":7,"d":"6",'
             '"norm3":"-216","divides":true,"tight":true}'),
    "prop1": '{"schema":1,"kind":"prop1","y":6,"z":7,"gcd":"6","bound_ok":true}',
}


@pytest.mark.parametrize("kind", sorted(_PAIR_LINES))
@pytest.mark.parametrize("bad", ['"y":"6"', '"y":3', '"y":true',
                                 '"y":7', '"y":6.0'])
def test_cli_check_records_rejects_bad_pair_indices(tmp_path, capsys,
                                                    kind, bad):
    path = tmp_path / "r.jsonl"
    path.write_text(_PAIR_LINES[kind].replace('"y":6', bad) + "\n")
    assert run(["check-records", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(_PAIR_LINES))
@pytest.mark.parametrize("y, z", [(6, PAIR_Z_MAX_CAP + 1),
                                  (PAIR_Z_MAX_CAP + 1, PAIR_Z_MAX_CAP + 2),
                                  (6, 10 ** 6)])
def test_cli_check_records_rejects_pair_indices_over_cap(tmp_path, capsys,
                                                         kind, y, z):
    path = tmp_path / "r.jsonl"
    line = _PAIR_LINES[kind].replace('"y":6,"z":7', f'"y":{y},"z":{z}')
    path.write_text(line + "\n")
    assert run(["check-records", str(path)]) == 2
    assert "error: line 1:" in capsys.readouterr().err


def test_cli_check_records_accepts_pair_at_cap(tmp_path, capsys):
    y, z = PAIR_Z_MAX_CAP - 1, PAIR_Z_MAX_CAP
    path = tmp_path / "r.jsonl"
    emit_records(path, [prop1_record(y, z, 1, True),
                        norm_record(norm_witness(y, z))])
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("check, z_max", [("prop1", PAIR_Z_MAX_CAP + 1),
                                          ("norms", PAIR_Z_MAX_CAP + 1),
                                          ("prop1", 4), ("norms", 5)])
def test_cli_verify_refuses_pair_sweep_over_cap(capsys, check, z_max):
    assert run(["verify", check, "--z-max", str(z_max)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "growth", "--n-max", str(GROWTH_N_MAX_CAP + 1)],
    ["verify", "constants", "--precision-bits",
     str(CONSTANTS_PRECISION_CAP + 1)],
])
def test_cli_verify_refuses_growth_and_constants_over_cap(tmp_path, capsys,
                                                          argv):
    path = tmp_path / "r.jsonl"
    assert run(argv + ["--out", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "growth", "--n-max", str(GROWTH_N_MAX_CAP)],
    ["verify", "constants", "--precision-bits", str(CONSTANTS_PRECISION_CAP)],
])
def test_cli_verify_growth_and_constants_at_cap_write_checkable_records(
        tmp_path, capsys, argv):
    path = tmp_path / "r.jsonl"
    assert run(argv + ["--out", str(path)]) == 0
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("u, v, w", [(1, 1, 1), (1, 3, 3), (3, 3, 6),
                                     (1, 6, 3), (6, 3, 1)])
def test_cli_check_records_rejects_an_unordered_triple(tmp_path, capsys,
                                                       u, v, w):
    # the membership claims are true; only the order of u, v, w is wrong
    line = membership_triple_record(u, v, w).to_line()
    if (u, v, w) == (1, 1, 1):
        assert line == ('{"schema":1,"kind":"triple","u":"1","v":"1",'
                        '"w":"1","x":4,"y":4,"z":4,"ok":true}')
    path = tmp_path / "r.jsonl"
    path.write_text(line + "\n")
    assert run(["check-records", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err == (f"error: line 1: triple needs u < v < w, got u={u}, "
                   f"v={v}, w={w}\n")


def test_cli_check_records_names_the_line_of_a_broken_rule(tmp_path, capsys):
    # a checker's rejection carries the line number as a parse error does,
    # after the failures of the lines before it
    path = tmp_path / "r.jsonl"
    forged = prop1_record(40, 45, 1, False)
    emit_records(path, [membership_triple_record(1, 3, 6), forged,
                        membership_triple_record(3, 3, 6),
                        membership_triple_record(1, 2, 3)])
    assert run(["check-records", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("record 2 (prop1): ") and "PASS" not in out
    assert err == ("error: line 3: triple needs u < v < w, got u=3, v=3, "
                   "w=6\n")


def test_cli_check_records_caps_triple_values(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    emit_records(path, [membership_triple_record(1, 3, 6),
                        membership_triple_record(1, 2, TRIPLE_VALUE_CAP - 1)])
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()

    genuine = membership_triple_record(1, 3, 6).to_line()
    for old, new in (('"u":"1"', '"u":"1' + "0" * 2000 + '"'),
                     ('"w":"6"', f'"w":"{TRIPLE_VALUE_CAP}"'),
                     ('"u":"1"', '"u":"0"'),
                     ('"u":"1"', '"u":"-1' + "0" * 2000 + '"')):
        path.write_text(genuine.replace(old, new) + "\n")
        t0 = time.perf_counter()
        assert run(["check-records", str(path)]) == 2
        assert time.perf_counter() - t0 < 1
        assert "error: line 1:" in capsys.readouterr().err


def test_cli_verdict_lines(capsys):
    assert run(["verify", "constants"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.fixture(scope="module")
def expansion_lines():
    """Genuine expansion records at (20, 25, 30), orders 0..2, as dicts."""
    report = decay_report(20, 25, 30, 2)
    return [json.loads(rec.to_line()) for rec in expansion_records(report)]


def _check_edited(tmp_path, record: dict, *flags: str, **edits) -> int:
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps({**record, **edits},
                               separators=(",", ":")) + "\n")
    return run(["check-records", str(path), *flags])


def test_cli_check_records_accepts_genuine_expansion(tmp_path, capsys,
                                                    expansion_lines):
    for record in expansion_lines:
        assert _check_edited(tmp_path, record) == 0
    capsys.readouterr()


@pytest.mark.parametrize("t, edits", [
    (2, {"x": "20"}),
    (2, {"y": True}),
    (2, {"z": 30.0}),
    (2, {"t": 99}),
    (2, {"t": -1}),
    (2, {"x": 4}),
    (2, {"z": 45}),
    (2, {"y": 20}),
    (1, {"decreasing": True}),
    (0, {"ratio_ok": False}),
    (2, {"decreasing": None}),
    (2, {"ratio_ok": 1}),
    (2, {"err_lo": "1/0"}),
    (2, {"err_hi": "abc"}),
    (2, {"err_lo": 1}),
    (2, {"t": MAX_ORDER + 1}),
])
def test_cli_check_records_rejects_bad_expansion_fields(
        tmp_path, capsys, expansion_lines, t, edits):
    assert _check_edited(tmp_path, expansion_lines[t], **edits) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_check_records_rejects_inverted_expansion_interval(
        tmp_path, capsys, expansion_lines):
    record = expansion_lines[2]
    assert _check_edited(tmp_path, record, err_lo=record["err_hi"],
                         err_hi=record["err_lo"]) == 2
    assert "inverted" in capsys.readouterr().err


def test_cli_check_records_flags_forged_expansion_interval(
        tmp_path, capsys, expansion_lines):
    assert _check_edited(tmp_path, expansion_lines[2],
                         err_lo="0", err_hi="1") == 1
    assert "FAIL" in capsys.readouterr().out


def _upper_end_forgery(record: dict) -> dict:
    """The record with its interval replaced by [h, h*(1 + 2**-13)], h the
    upper end of the enclosure the checker recomputes: an interval that
    meets the error's enclosure but lies at or above all of it."""
    h = expansion_error(record["x"], record["y"], record["z"],
                        record["t"]).hi
    return {**record, "err_lo": str(h),
            "err_hi": str(h * (1 + Fraction(1, 2 ** 13)))}


def _recording_expansion_error(monkeypatch) -> list:
    """The precision of every expansion_error call the checker makes."""
    seen = []
    true_expansion_error = records.expansion_error

    def recording(x, y, z, t, bits, *cap):
        seen.append(bits)
        return true_expansion_error(x, y, z, t, bits, *cap)

    monkeypatch.setattr(records, "expansion_error", recording)
    return seen


def test_cli_check_records_fails_an_interval_that_only_meets_the_error(
        tmp_path, capsys, monkeypatch, expansion_lines):
    forged = _upper_end_forgery(expansion_lines[2])
    seen = _recording_expansion_error(monkeypatch)
    assert _check_edited(tmp_path, forged) == 1
    assert "misses the recorded interval" in capsys.readouterr().out
    # the two meet at the default precision; twice that tells them apart
    assert DEFAULT_PRECISION * 2 in seen


def test_cli_check_records_escalates_a_genuine_expansion_record(
        tmp_path, capsys, monkeypatch, expansion_lines):
    # at 32 bits the recomputed error is wider than the recorded one, so
    # the checker climbs until the record encloses it
    seen = _recording_expansion_error(monkeypatch)
    for record in expansion_lines:
        seen.clear()
        assert _check_edited(tmp_path, record, "--precision-bits", "32") == 0
        assert seen[0] == 32 and max(seen) > 32
    capsys.readouterr()


def test_cli_check_records_rejects_an_only_meeting_interval_at_the_cap(
        tmp_path, capsys, expansion_lines):
    # no rung past the starting precision: neither enclosed nor apart is
    # inconclusive, exit 3, not a verdict
    forged = _upper_end_forgery(expansion_lines[2])
    assert _check_edited(tmp_path, forged, "--max-precision-bits",
                         str(DEFAULT_PRECISION)) == 3
    captured = capsys.readouterr()
    assert "inconclusive:" in captured.err and "PASS" not in captured.out


def test_cli_check_records_stops_two_rungs_past_a_narrower_recomputation(
        tmp_path, capsys, monkeypatch, expansion_lines):
    # err_lo lies 2^-3000 (relative) above the error, so only about 3000
    # bits could tell the interval from the error; the recomputation is
    # narrower than the record from the first rung on, so the checker
    # stops two rungs later, inconclusive, instead of climbing to the cap
    record = expansion_lines[2]
    error = expansion_error(record["x"], record["y"], record["z"],
                            record["t"], 8192, 8192)
    lo = error.hi * (1 + Fraction(1, 2 ** 3000))
    forged = {**record, "err_lo": str(lo),
              "err_hi": str(lo * (1 + Fraction(1, 2 ** 13)))}
    seen = _recording_expansion_error(monkeypatch)
    t0 = time.perf_counter()
    assert _check_edited(tmp_path, forged) == 3
    assert time.perf_counter() - t0 < 1
    assert seen == [DEFAULT_PRECISION, 2 * DEFAULT_PRECISION,
                    4 * DEFAULT_PRECISION]
    captured = capsys.readouterr()
    assert "inconclusive:" in captured.err and "PASS" not in captured.out


def test_cli_check_records_passes_a_record_written_at_higher_precision(
        tmp_path, capsys, monkeypatch):
    # a 1024-bit record is narrower than every recomputation below 1024
    # bits, so the climb is not cut short before it reaches the record
    path = tmp_path / "expansion.jsonl"
    assert run(["verify", "expansion", "--x", "20", "--y", "25", "--z", "30",
                "--t-max", "2", "--precision-bits", "1024",
                "--out", str(path)]) == 0
    seen = _recording_expansion_error(monkeypatch)
    assert run(["check-records", str(path)]) == 0
    assert seen[0] == DEFAULT_PRECISION and max(seen) > 1024
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["decreasing", "ratio_ok"])
def test_cli_check_records_flags_forged_expansion_verdict(
        tmp_path, capsys, expansion_lines, flag):
    record = expansion_lines[2]
    assert record[flag] is True
    assert _check_edited(tmp_path, record, **{flag: False}) == 1
    assert "verdict" in capsys.readouterr().out


@pytest.mark.parametrize("edits", [
    {"x": EXPANSION_INDEX_CAP + 1},
    {"y": EXPANSION_INDEX_CAP + 1},
    {"z": EXPANSION_INDEX_CAP + 1},
    {"x": 2000, "y": 2005, "z": 2010},
])
def test_cli_check_records_rejects_expansion_indices_over_cap(
        tmp_path, capsys, expansion_lines, edits):
    assert _check_edited(tmp_path, expansion_lines[2], **edits) == 2
    assert "error: line 1:" in capsys.readouterr().err


@pytest.mark.parametrize("xyz", [(60, 80, EXPANSION_INDEX_CAP + 1),
                                 (EXPANSION_INDEX_CAP + 1,
                                  EXPANSION_INDEX_CAP + 2,
                                  EXPANSION_INDEX_CAP + 3)])
def test_cli_verify_expansion_refuses_indices_over_cap(capsys, xyz):
    x, y, z = map(str, xyz)
    assert run(["verify", "expansion", "--x", x, "--y", y, "--z", z]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_expansion_at_cap_writes_checkable_records(tmp_path,
                                                              capsys):
    path = tmp_path / "r.jsonl"
    z = EXPANSION_INDEX_CAP
    assert run(["verify", "expansion", "--x", str(z // 2 + 1),
                "--y", str(z - 1), "--z", str(z), "--t-max", "2",
                "--out", str(path)]) == 0
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()


def test_cli_verify_expansion_honours_precision_cap(capsys):
    assert run(["verify", "expansion", "--x", "20", "--y", "25", "--z", "30",
                "--t-max", "4", "--precision-bits", "16",
                "--max-precision-bits", "32"]) == 3
    captured = capsys.readouterr()
    assert "inconclusive:" in captured.err
    assert "PASS" not in captured.out


def test_cli_check_records_honours_expansion_precision_cap(
        tmp_path, capsys, expansion_lines):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(expansion_lines[2], separators=(",", ":"))
                    + "\n")
    assert run(["check-records", str(path), "--precision-bits", "16",
                "--max-precision-bits", "32"]) == 3
    assert "inconclusive:" in capsys.readouterr().err
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()


def test_lemma2_exhaustive_witness_search_is_inconclusive_fast(
        capsys, monkeypatch):
    # alpha^2 is a square, so with reconstruction failing no witness pair
    # exists for it and the search runs through every prime to the bound
    splitfield.binet_constants()   # built before reconstruction is broken
    monkeypatch.setattr(splitfield, "_cubic_sqrt_reconstruct",
                        lambda *args: None)
    with pytest.raises(splitfield.InconclusiveSquareTest) as err:
        is_square_in_K(ALPHA_C * ALPHA_C)
    assert f"prime bound {splitfield.WITNESS_PRIME_BOUND}" in str(err.value)
    start = time.perf_counter()
    assert run(["verify", "lemma2"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "inconclusive:" in capsys.readouterr().err


_SUMMARY_LINES = {
    "search": ('{"schema":1,"kind":"search-summary","mode":"search",'
               '"z_max":12,"w_max":null,"use_gcd_prune":true,"count":0}'),
    "brute": ('{"schema":1,"kind":"search-summary","mode":"brute",'
              '"z_max":null,"w_max":50,"use_gcd_prune":null,"count":0}'),
}


def test_cli_check_records_accepts_genuine_search_summaries(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    emit_records(path, [
        search_summary_record("search", 0, z_max=12, use_gcd_prune=True),
        search_summary_record("search", 0, z_max=7, use_gcd_prune=False),
        search_summary_record("brute", 0, w_max=50),
        search_summary_record("brute", 0, w_max=3)])
    assert path.read_text().splitlines()[::2] == [_SUMMARY_LINES["search"],
                                                  _SUMMARY_LINES["brute"]]
    assert run(["check-records", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode, edits", [
    ("search", {"z_max": None}),
    ("brute", {"w_max": "50"}),
    ("search", {"mode": "junk"}),
    ("brute", {"mode": "junk"}),
    ("search", {"z_max": 3}),
    ("search", {"z_max": 10 ** 9}),
    ("brute", {"w_max": 10 ** 12}),
    ("brute", {"w_max": 2}),
    ("search", {"z_max": True}),
    ("search", {"z_max": 12.0}),
    ("search", {"use_gcd_prune": None}),
    ("search", {"use_gcd_prune": 1}),
    ("search", {"w_max": 50}),
    ("brute", {"z_max": 12}),
    ("brute", {"use_gcd_prune": False}),
    ("search", {"count": -1}),
    ("brute", {"count": "0"}),
    ("brute", {"count": False}),
    ("search", {"z_max": 6}),
    ("search", {"z_max": SEARCH_Z_MAX_CAP + 1}),
])
def test_cli_check_records_rejects_bad_search_summary_fields(
        tmp_path, capsys, mode, edits):
    record = json.loads(_SUMMARY_LINES[mode])
    assert _check_edited(tmp_path, record, **edits) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", sorted(_SUMMARY_LINES))
def test_cli_check_records_flags_forged_search_count(tmp_path, capsys, mode):
    record = json.loads(_SUMMARY_LINES[mode])
    assert _check_edited(tmp_path, record, count=1) == 1
    assert "recomputes 0 candidates" in capsys.readouterr().out


def test_cli_brute_at_the_cap_writes_a_checkable_summary(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    assert run(["brute", "--w-max", str(BRUTE_W_MAX_CAP),
                "--out", str(path)]) == 0
    assert run(["check-records", str(path)]) == 0
    record = json.loads(path.read_text())
    assert (record["w_max"], record["count"]) == (BRUTE_W_MAX_CAP, 0)
    capsys.readouterr()
    assert _check_edited(tmp_path, record, count=1) == 1
    assert "brute recomputes 0 candidates" in capsys.readouterr().out


def test_cli_check_records_searches_each_z_once(tmp_path, capsys,
                                                 monkeypatch,
                                                 fresh_search_sweep):
    from triboverify import triples
    runs = Counter()
    search_at = triples._search_at

    def counted(z, *args):
        runs[z] += 1
        return search_at(z, *args)
    monkeypatch.setattr(triples, "_search_at", counted)
    recs = [search_summary_record("search", 0, z_max=z, use_gcd_prune=prune)
            for z in range(7, 61) for prune in (False, True)]
    # out of order, so that the sweep both extends and filters
    random.Random(5).shuffle(recs)
    forged = search_summary_record("search", 1, z_max=30, use_gcd_prune=True)
    path = tmp_path / "r.jsonl"
    emit_records(path, recs + [forged])
    assert run(["check-records", str(path)]) == 1
    out = capsys.readouterr().out
    assert (f"record {len(recs) + 1} (search-summary): search recomputes 0"
            in out)
    assert "failures=1" in out
    # one search of each z serves both prune flags
    assert runs == {z: 1 for z in range(7, 61)}



@pytest.fixture(scope="module")
def sized_lines():
    """Genuine growth and constants records, as dicts."""
    return {
        "growth": json.loads(growth_record(verify_growth(20)).to_line()),
        "constants": json.loads(
            constants_record(verify_numeric_window(96)).to_line()),
    }


def test_cli_check_records_accepts_genuine_growth_and_constants(
        tmp_path, capsys, sized_lines):
    for record in sized_lines.values():
        assert _check_edited(tmp_path, record) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind, edits", [
    ("growth", {"n_max": "5"}),
    ("growth", {"n_max": True}),
    ("growth", {"n_max": 10 ** 9}),
    ("growth", {"n_max": 1}),
    ("growth", {"n_max": 20.0}),
    ("growth", {"n_max": None}),
    ("constants", {"precision_bits": "96"}),
    ("constants", {"precision_bits": True}),
    ("constants", {"precision_bits": 0}),
    ("constants", {"precision_bits": 4097}),
    ("constants", {"precision_bits": 96.0}),
])
def test_cli_check_records_rejects_bad_growth_and_constants_fields(
        tmp_path, capsys, sized_lines, kind, edits):
    assert _check_edited(tmp_path, sized_lines[kind], **edits) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def lemma2_lines():
    """Genuine lemma2 records for every labelled element, as dicts."""
    return {label: json.loads(lemma2_record(
                label, is_square_in_K(element)).to_line())
            for label, (element, _) in LEMMA2_CASES.items()}


def test_cli_check_records_accepts_genuine_lemma2(tmp_path, capsys,
                                                 lemma2_lines):
    for record in lemma2_lines.values():
        assert _check_edited(tmp_path, record) == 0
    capsys.readouterr()


@pytest.mark.parametrize("label", ["junk", None, ["a"]])
def test_cli_check_records_rejects_unknown_lemma2_label(
        tmp_path, capsys, lemma2_lines, label):
    # a square with a valid root, under a label that names no element
    record = lemma2_lines["alpha^2"]
    assert _check_edited(tmp_path, record, element=label,
                         coords=["1", "0", "0"],
                         root=["1", "0", "0", "0", "0", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_check_records_ties_lemma2_label_to_its_element(
        tmp_path, capsys, lemma2_lines):
    # the genuine certificate for alpha^2, relabelled as the element a
    assert _check_edited(tmp_path, lemma2_lines["alpha^2"],
                         element="a") == 1
    assert "not those of the element a" in capsys.readouterr().out


def test_cli_check_records_rejects_out_of_range_witness_prime(
        tmp_path, capsys, lemma2_lines):
    assert _check_edited(tmp_path, lemma2_lines["a"],
                         witness_self=[1000003, 3]) == 2
    assert "witness_self" in capsys.readouterr().err
    # 3001 is the first prime past the bound the lemma2 battery searches
    assert _check_edited(tmp_path, lemma2_lines["a"],
                         witness_twisted=[3001, 3]) == 2
    assert "witness_twisted" in capsys.readouterr().err


_NEEDS_PRIME = "needs a prime q other than 2 and 11 and 0 <= r < q"
# (label, edits, the message the checker gives)
_UNSOUND_LEMMA2 = [
    # 49 and 91 are composite: Euler's criterion proves nothing mod them
    ("alpha^2", {"square": False, "root": None, "witness_self": [49, 17],
                 "witness_twisted": [49, 17]},
     "the element alpha^2 has square=True"),
    ("a", {"witness_self": [91, 59]}, f"witness_self: (91,59) {_NEEDS_PRIME}"),
    ("a", {"witness_self": [11, 3]}, f"witness_self: (11,3) {_NEEDS_PRIME}"),
    ("a", {"witness_self": [7, 10]}, f"witness_self: (7,10) {_NEEDS_PRIME}"),
    ("a", {"square": True}, "the element a has square=False"),
    ("a", {"root": ["1", "0", "0", "0", "0", "0"]},
     "a non-square verdict carries no root"),
    ("alpha^2", {"witness_self": [7, 3]},
     "a square verdict carries a root and no witnesses"),
    ("alpha^2", {"root": ["1", "0", "0", "0", "0", "0"]},
     "root does not square back to the element"),
    ("a", {"witness_self": None}, "negative verdict requires witness_self"),
    # 0 is no root of x^3 - x^2 - x - 1 mod 7, which 3 is
    ("a", {"witness_self": [7, 0]},
     "witness_self: 0 is not a root of the cubic mod 7"),
    # (17, 14) refutes the twisted element a * -11, not a itself
    ("a", {"witness_self": [17, 14]},
     "witness_self: residue check fails at (17,14)"),
]


# each case is named by its label and its index, not by its message
@pytest.mark.parametrize("label, edits, message", _UNSOUND_LEMMA2, ids=[
    f"{label}-edits{i}" for i, (label, _, _) in enumerate(_UNSOUND_LEMMA2)])
def test_cli_check_records_flags_unsound_lemma2_certificate(
        tmp_path, capsys, lemma2_lines, label, edits, message):
    assert _check_edited(tmp_path, lemma2_lines[label], **edits) == 1
    out = capsys.readouterr().out
    assert f"record 1 (lemma2): {message}\n" in out and "FAIL" in out


def test_lemma2_witness_prime_that_meets_a_denominator_is_refused():
    # no element a lemma2 record may name has a denominator a witness prime
    # can meet, so the rule is reached by a direct call: 3 is a root of the
    # cubic mod 7, and 7 divides the denominator of 1/7
    element = CubicElement((Fraction(1, 7), 1, 0))
    assert records._lemma2_certificate_problem(
        element, False, None, [(7, 3), (7, 3)]) == (
        "witness_self: prime 7 meets a denominator")


@pytest.mark.parametrize("label, key, value", [
    ("alpha^2", "root", "negated"),
    ("-11", "root", "negated"),
    # (13, 7) refutes squareness of a too, but the search meets (7, 3) first
    ("a", "witness_self", [13, 7]),
    ("alpha*a", "witness_twisted", [13, 7]),
])
def test_cli_check_records_flags_a_sound_lemma2_certificate_not_written(
        tmp_path, capsys, lemma2_lines, label, key, value):
    # the battery writes one certificate per element; another that is sound
    # too is still a record no battery wrote
    record = lemma2_lines[label]
    if value == "negated":
        value = [str(-Fraction(c)) for c in record[key]]
    assert _check_edited(tmp_path, record, **{key: value}) == 1
    assert "not the one the battery writes" in capsys.readouterr().out


@functools.cache
def _genuine_lines() -> tuple[str, ...]:
    """A small genuine line of every kind, and both search-summary modes."""
    recs = [membership_triple_record(1, 3, 6), prop1_record(6, 7, 6, True),
            norm_record(norm_witness(6, 7)),
            lemma2_record("a", is_square_in_K(LEMMA2_CASES["a"][0])),
            constants_record(verify_numeric_window(64)),
            growth_record(verify_growth(12)),
            field_record(field_identity_report()),
            expansion_records(decay_report(20, 25, 30, 2))[2],
            search_summary_record("search", 0, z_max=9, use_gcd_prune=True),
            search_summary_record("brute", 0, w_max=40)]
    return tuple(rec.to_line() for rec in recs)


def _genuine_line(kind: str) -> str:
    return next(line for line in _genuine_lines()
                if line.startswith(f'{{"schema":1,"kind":"{kind}"'))


_HEAD_ERROR = "needs schema 1 and a record kind"

# (kind, old, new, what the error names): a genuine line of the kind with
# old replaced by new, and the start of the message after "line 2: "
_MALFORMED_FIELDS = [
    ("prop1", '"bound_ok":true', '"bound_ok":1', "prop1 bound_ok"),
    ("prop1", '"gcd":"6"', '"gcd":" 6"', "prop1 gcd"),
    ("prop1", '"gcd":"6"', '"gcd":"0_6"', "prop1 gcd"),
    ("prop1", '"gcd":"6"', '"gcd":"1' + "0" * 5000 + '"', "prop1 gcd"),
    ("prop1", '"z":7', '"z":1' + "0" * 5000, "prop1 z"),
    ("prop1", '"kind":"prop1"', '"kind":["prop1"]', _HEAD_ERROR),
    ("prop1", '"schema":1', '"schema":true', _HEAD_ERROR),
    ("prop1", '"schema":1', '"schema":1.0', _HEAD_ERROR),
    ("prop1", '"schema":1', '"schema":"1"', _HEAD_ERROR),
    ("prop1", '"y":6', '"y":6,"y":6', "prop1 z"),
    ("prop1", '"y":6,"z":7', '"z":7,"y":6', "prop1 y"),
    ("prop1", ',"bound_ok":true', '', "prop1 bound_ok"),
    ("prop1", '"bound_ok":true', '"bound_ok":true,"extra":null',
     "prop1: needs } to end the line"),
    ("prop1", '"y":6', '"y": 6', "prop1 y"),
    ("norm", '"tight":true', '"tight":1', "norm tight"),
    ("lemma2", '"witness_self":[7,3]', '"witness_self":[7.9,3.2]',
     "lemma2 witness_self"),
    ("lemma2", '"witness_self":[7,3]', '"witness_self":[7,3,99]',
     "lemma2 witness_self"),
    ("lemma2", '"witness_self":[7,3]', '"witness_self":[7]',
     "lemma2 witness_self"),
    ("lemma2", '"witness_self":[7,3]', '"witness_self":["x",3]',
     "lemma2 witness_self"),
    ("lemma2", '"root":null', '"root":5', "lemma2 root"),
    ("lemma2", '"coords":["1/22","9/22","-2/11"]', '"coords":5',
     "lemma2 coords"),
    ("lemma2", '"1/22"', '"2/44"', "lemma2 coords"),
    ("lemma2", '"1/22"', '"1/0"', "lemma2 coords"),
    ("lemma2", '"1/22"', '"1e9999"', "lemma2 coords"),
    ("prop1", '"gcd":"6"', '"gcd":6',
     "prop1 gcd: needs a decimal string, got 6,"),
    ("prop1", '"z":7', '"z":2001',
     "prop1 z: needs an integer 4 <= n <= 2000, got 2001\n"),
]


@pytest.mark.parametrize("kind, old, new, named", _MALFORMED_FIELDS,
                         ids=["-".join(c[:3]) for c in _MALFORMED_FIELDS])
def test_cli_check_records_rejects_malformed_field(tmp_path, capsys, kind,
                                                   old, new, named):
    genuine = _genuine_line(kind)
    assert old in genuine
    path = tmp_path / "r.jsonl"
    path.write_text(genuine + "\n" + genuine.replace(old, new, 1) + "\n")
    assert run(["check-records", str(path)]) == 2
    assert f"error: line 2: {named}" in capsys.readouterr().err


def test_cli_check_records_rejects_non_utf8_line(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    line = _PAIR_LINES["prop1"].encode()
    path.write_bytes(line + b"\n" + line.replace(b'"6"', b'"\xff"') + b"\n")
    assert run(["check-records", str(path)]) == 2
    assert "error: line 2:" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def cli(*args) -> int:
        return subprocess.run([sys.executable, "-m", "triboverify.cli",
                               *args], env=env, capture_output=True,
                              timeout=120).returncode

    assert cli("verify", "prop1", "--z-max", "0") == 2
    path = tmp_path / "r.jsonl"
    path.write_text(_PAIR_LINES["prop1"].replace('"gcd":"6"', '"gcd":"12"')
                    + "\n")
    assert cli("check-records", str(path)) == 1


# small values only: each check must re-run in well under a second
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 64)
    | st.floats(allow_nan=True) | st.text(max_size=4)
    | st.sampled_from(["6", "06", " 6", "+6", "6/1", "2/4", "-0", "1e3",
                       "lower", "search", "brute", "a", "alpha^2"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=2)),
    max_leaves=4)

_RESPELLINGS = ["0{}", "{}.0", "{}e0", "+{}", " {}", "{}_0", "-{}", "{}0",
                "{} "]


@st.composite
def _mutated_lines(draw) -> str:
    line = draw(st.sampled_from(_genuine_lines()))
    how = draw(st.sampled_from(["replace", "drop", "swap", "respell"]))
    if how == "respell":
        spots = list(re.finditer(r"\d+", line))
        m = draw(st.sampled_from(spots))
        new = draw(st.sampled_from(_RESPELLINGS)).format(m.group())
        return line[:m.start()] + new + line[m.end():]
    items = list(json.loads(line).items())
    i = draw(st.integers(0, len(items) - 1))
    if how == "replace":
        items[i] = (items[i][0], draw(_JSON_VALUES))
    elif how == "drop":
        del items[i]
    else:
        j = draw(st.integers(0, len(items) - 1))
        items[i], items[j] = items[j], items[i]
    return json.dumps(dict(items), separators=(",", ":"))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=_mutated_lines())
def test_fuzz_check_records_mutated_genuine_lines(tmp_path, capsys, line):
    try:
        rec = VerificationRecord.from_line(line)
    except RecordFormatError:
        pass
    else:
        assert rec.to_line() == line
    path = tmp_path / "r.jsonl"
    path.write_text(line + "\n")
    assert run(["check-records", str(path)]) in (0, 1, 2, 3)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# forgeries: one field of a genuine line changed to another value that
# parses.  check-records must refuse the result (exit 1 or 2) unless it is
# the record the battery writes for its key fields: (u, v, w) for triple,
# (y, z) for prop1 and norm, the label for lemma2, precision_bits for
# constants, n_max for growth, none for field, (x, y, z, t) for expansion
# and every field but count for search-summary.
# ---------------------------------------------------------------------------

def _battery_record(rec: VerificationRecord):
    """The record the battery writes for rec's key fields, or None when the
    key fields name no record a battery writes."""
    kind, values = rec
    if kind == "triple":
        u, v, w = values[:3]
        return membership_triple_record(u, v, w) if u < v < w else None
    if kind in ("prop1", "norm"):
        y, z = values[:2]
        if not y < z:
            return None
        if kind == "norm":
            return norm_record(norm_witness(y, z))
        d = gcdbound.gcd_shifted(y, z)
        return prop1_record(y, z, d, d <= gcdbound.prop1_threshold(z))
    if kind == "lemma2":
        label = values[0]
        return lemma2_record(label, is_square_in_K(LEMMA2_CASES[label][0]))
    if kind == "constants":
        return constants_record(verify_numeric_window(values[0]))
    if kind == "growth":
        return growth_record(tribonacci.verify_growth_trace(values[0]))
    if kind == "field":
        return field_record(field_identity_report())
    if kind == "expansion":
        x, y, z, t = values[:4]
        if not (x < y < z and x + y > z):
            return None
        return expansion_records(decay_report(x, y, z, max(t, 2)))[t]
    mode, z_max, w_max, prune, _ = values
    if mode == "search" and w_max is None and None not in (z_max, prune):
        return search_summary_record(mode, len(search(z_max, prune)),
                                     z_max=z_max, use_gcd_prune=prune)
    if mode == "brute" and (z_max, prune) == (None, None) and w_max:
        return search_summary_record(mode, len(brute_force(w_max)),
                                     w_max=w_max)
    return None


def _ints_near(value: int, lo: int, hi: int):
    """Integers lo..hi: value's neighbours, and any."""
    return (st.sampled_from([value - 2, value - 1, value + 1, value + 2])
            | st.integers(lo, hi)).filter(lambda n: lo <= n <= hi)


def _fractions_near(value: Fraction):
    """value nudged by a relative 2**-k, for k up to past the precision it
    was written at, its negation, and any small fraction."""
    nudged = st.builds(
        lambda k, sign: value * (1 + sign * Fraction(1, 2 ** k)),
        st.integers(1, 2 * DEFAULT_PRECISION), st.sampled_from([-1, 1]))
    return nudged | st.just(-value) | st.fractions(max_denominator=10 ** 6)


@functools.cache
def _witnesses(label: str, twist: int) -> tuple:
    """Every pair (q, r), q < 200, that refutes squareness of the label's
    element times twist: certificates as sound as the battery's own."""
    den, nums = splitfield._clear_denominators(
        (LEMMA2_CASES[label][0] * twist).coords)
    return tuple(
        (q, r) for q in splitfield._prime_iter(200)
        if q != 11 and den % q
        for r in splitfield.roots_of_cubic_mod(q)
        if splitfield._legendre((nums[0] + r * (nums[1] + r * nums[2]))
                                * pow(den, -1, q), q) == -1)


def _checks_near(checks: dict):
    """The dict with one verdict flipped, one name dropped or one added."""
    names = sorted(checks)
    return st.one_of(
        st.sampled_from(names).map(lambda k: {**checks, k: not checks[k]}),
        st.sampled_from(names).map(
            lambda k: {n: ok for n, ok in checks.items() if n != k}),
        st.builds(lambda k, ok: {**checks, k: ok}, st.text(max_size=4),
                  st.booleans()))


def _values_near(rec: VerificationRecord, key: str):
    """Values for one field of rec, near its own and anywhere in a range
    cheap to re-check."""
    value = rec.get(key)
    kind = rec.kind
    if key in ("decreasing", "ratio_ok", "use_gcd_prune"):
        return st.sampled_from([True, False, None])
    if isinstance(value, bool):
        return st.booleans()
    if kind == "triple":
        if key in ("u", "v", "w"):
            return _ints_near(value, 1, 60)
        return st.none() | st.integers(0, 30)
    if kind in ("prop1", "norm"):
        if key in ("y", "z"):
            return _ints_near(value, 4, 40)
        return st.builds(lambda k, c: value * k + c, st.integers(-2, 2),
                         st.integers(-2, 2))
    if kind == "lemma2":
        if key == "element":
            return st.sampled_from(sorted(LEMMA2_CASES))
        if key == "coords":
            return st.sampled_from([case[0].coords
                                    for case in LEMMA2_CASES.values()])
        if key == "root":
            roots = [tuple(-c for c in value)] if value else []
            return st.sampled_from([None, *roots]) | st.tuples(
                *[st.fractions(max_denominator=50)] * 6)
        twist = 1 if key == "witness_self" else -11
        return (st.sampled_from([None, *_witnesses(rec.get("element"),
                                                   twist)])
                | st.tuples(st.integers(3, 200), st.integers(0, 200)))
    if key == "checks":
        return _checks_near(value)
    if kind == "constants":
        return _ints_near(value, 8, 200)
    if kind == "growth":
        if key == "failures":
            return st.lists(st.tuples(st.integers(0, 20),
                                      st.sampled_from(["lower", "upper"])),
                            min_size=1, max_size=2).map(tuple)
        return _ints_near(value, 2, 40)
    if kind == "expansion":
        if key in ("err_lo", "err_hi"):
            return _fractions_near(value)
        if key == "t":
            return st.integers(0, MAX_ORDER)
        return _ints_near(value, 5, 40)
    # search-summary
    if key == "mode":
        return st.sampled_from(["search", "brute"])
    if key == "count":
        return st.integers(0, 3)
    if key == "z_max":
        return st.none() | _ints_near(value or 9, 7, 150)
    return st.none() | _ints_near(value or 40, 3, 5000)


@st.composite
def _forged_records(draw):
    """A genuine record of any kind with one field changed to another value
    that parses."""
    genuine = VerificationRecord.from_line(
        draw(st.sampled_from(_genuine_lines())))
    keys = [key for key, _ in records._FIELDS[genuine.kind]]
    i = draw(st.integers(0, len(keys) - 1))
    new = draw(_values_near(genuine, keys[i]))
    assume(new != genuine.payload[i])
    values = list(genuine.payload)
    values[i] = new
    try:
        forged = VerificationRecord.from_line(
            VerificationRecord(genuine.kind, values).to_line())
    except RecordFormatError:
        assume(False)
    return forged


def _certifies_the_error(rec: VerificationRecord) -> bool:
    """Whether an expansion record's interval is positive, of relative
    width at most 2**-12, and encloses the error at some precision up to
    eight times the default."""
    x, y, z, t, lo, hi = rec.payload[:6]
    recorded = Enclosure(lo, hi)
    if not (lo > 0 and (hi - lo) * 4096 <= lo):
        return False
    return any(recorded.encloses(expansion_error(x, y, z, t, bits))
               for bits in precision_ladder(DEFAULT_PRECISION,
                                            8 * DEFAULT_PRECISION))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(forged=_forged_records())
def test_cli_check_records_refuses_every_forged_field(tmp_path, capsys,
                                                      forged):
    path = tmp_path / "r.jsonl"
    path.write_text(forged.to_line() + "\n")
    code = run(["check-records", str(path)])
    capsys.readouterr()
    battery = _battery_record(forged)
    if battery is not None and battery.payload == forged.payload:
        assert code == 0
    elif code == 0:
        # the record carries no precision, so an interval other than the
        # battery's passes when it still encloses the error: a genuine
        # record written at another --precision-bits is one such
        assert forged.kind == "expansion"
        assert battery is not None
        assert (battery.payload[:4] + battery.payload[6:]
                == forged.payload[:4] + forged.payload[6:])
        assert _certifies_the_error(forged)
    else:
        assert code in (1, 2)


def test_checking_a_prop1_record_takes_its_gcd_once(monkeypatch):
    # T_y and T_z come off the sequence table's list: one gcd, and no call
    # to gcd_shifted or trib
    calls = []
    d = gcd(trib_fast(40) - 1, trib_fast(45) - 1)

    def counting(a, b):
        calls.append((a, b))
        return gcd(a, b)

    def refuse(*args):
        raise AssertionError("the prop1 checker reads the sequence table")

    monkeypatch.setattr(records, "gcd", counting)
    monkeypatch.setattr(gcdbound, "gcd_shifted", refuse)
    monkeypatch.setattr(gcdbound, "trib", refuse)
    monkeypatch.setattr(tribonacci, "trib", refuse)
    assert check_record(prop1_record(40, 45, d, True)) == (True, "ok")
    assert calls == [(trib_fast(40) - 1, trib_fast(45) - 1)]


def test_a_prop1_record_at_the_cap_grows_the_table_to_it(monkeypatch):
    # the codec caps z, so a record never grows the table past index
    # PAIR_Z_MAX_CAP
    z = PAIR_Z_MAX_CAP
    d = gcd(trib_fast(z - 7) - 1, trib_fast(z) - 1)
    rec = VerificationRecord.from_line(
        prop1_record(z - 7, z, d, gcdbound.prop1_holds(z - 7, z)).to_line())
    table = tribonacci.TribTable()
    monkeypatch.setattr(records, "default_table", lambda: table)
    assert check_record(rec) == (True, "ok")
    assert len(table) == PAIR_Z_MAX_CAP + 1


def test_a_prop1_record_with_a_wrong_gcd_or_verdict_fails():
    y, z = 40, 45
    d = gcdbound.gcd_shifted(y, z)
    assert check_record(prop1_record(y, z, d, True)) == (True, "ok")
    for wrong in (d - 1, d + 1):
        assert check_record(prop1_record(y, z, wrong, True)) == (
            False, f"gcd({y},{z}) recomputes to {d}")
    assert check_record(prop1_record(y, z, d, False)) == (
        False, "bound verdict disagrees")


def test_checking_expansion_records_computes_each_order_once(
        tmp_path, capsys, monkeypatch):
    first = expansion_records(decay_report(20, 25, 30, 4))
    second = expansion_records(decay_report(12, 14, 16, 2))
    run_of_records = [*first, *second, first[2]]
    computed = []
    true_truncation_value = expansion._truncation_value

    def counting(x, y, z, t, bits):
        computed.append((x, y, z, t))
        return true_truncation_value(x, y, z, t, bits)

    monkeypatch.setattr(expansion, "_truncation_value", counting)
    # each record reads orders t and t - 1, and the file comes back to the
    # first triple: still every (x, y, z, t) is computed once, by
    # check-records over the file and by check_record record by record
    once = ([(20, 25, 30, t) for t in range(5)]
            + [(12, 14, 16, t) for t in range(3)])
    path = tmp_path / "r.jsonl"
    emit_records(path, run_of_records)
    expansion.expansion_error.cache_clear()
    assert run(["check-records", str(path)]) == 0
    assert computed == once
    computed.clear()
    expansion.expansion_error.cache_clear()
    assert [check_record(rec) for rec in run_of_records] == (
        [(True, "ok")] * len(run_of_records))
    assert computed == once
    capsys.readouterr()


# read_records strips only the "\n" that emit_records writes
@pytest.mark.parametrize("text, bad_line", [
    ("{0}\n\t{0}\n", 2),
    ("{0}\n{0}\u3000\n", 2),
    ("{0}\r\n{0}\r\n", 1),
    ("{0}\n\n{0}\n", 2),
    ("{0}\n{0}\n\n", 3),
    ("{0}\n {0}\n", 2),
])
def test_cli_check_records_rejects_bytes_around_a_record(tmp_path, capsys,
                                                        text, bad_line):
    path = tmp_path / "r.jsonl"
    path.write_bytes(text.format(_PAIR_LINES["prop1"]).encode())
    assert run(["check-records", str(path)]) == 2
    assert f"error: line {bad_line}:" in capsys.readouterr().err


def test_cli_check_records_rejects_a_file_without_records(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    path.write_bytes(b"")
    assert run(["check-records", str(path)]) == 2
    assert capsys.readouterr().err == f"error: no records in {path}\n"
    path.write_bytes(b"\n \n")
    assert run(["check-records", str(path)]) == 2
    assert "error: line 1:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the block reader against the reader it replaced: one line at a time, each
# through from_line
# ---------------------------------------------------------------------------

def _read_line_by_line(path):
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").removesuffix("\n")
                rec = VerificationRecord.from_line(line)
            except (UnicodeDecodeError, RecordFormatError) as exc:
                raise RecordFormatError(f"line {lineno}: {exc}") from exc
            yield rec


def _outcome(reader, path):
    """The records a reader yields from path, then its error or None."""
    recs = []
    try:
        for rec in reader(path):
            recs.append(rec)
    except RecordFormatError as exc:
        return recs, str(exc)
    return recs, None


# what str.splitlines would also end a line at
_LINE_BREAKS = ["\r", "\x85", "\u2028"]


@st.composite
def _record_lines(draw) -> bytes:
    """One line of a records file, mostly genuine, else one that
    from_line refuses or whose bytes around a record it must refuse."""
    line = draw(st.sampled_from(_genuine_lines()))
    how = draw(st.sampled_from(["genuine"] * 6 + [
        "forged", "blank", "cr", "spaced", "not utf-8", "split key",
        "joined"]))
    if how == "forged":
        line = draw(_mutated_lines())
    elif how == "blank":
        line = ""
    elif how == "cr":
        line += "\r"
    elif how == "spaced":
        space = draw(st.sampled_from(["\t", " ", "\u3000", "\xa0"]))
        line = space + line if draw(st.booleans()) else line + space
    elif how == "not utf-8":
        cut = draw(st.integers(0, len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"]))
        return line[:cut].encode() + bad + line[cut:].encode()
    elif how == "split key":
        # a checks key with a raw newline in it: two lines, neither a record
        line = draw(st.sampled_from([_genuine_line("constants"),
                                     _genuine_line("field")]))
        key = line.index('"checks":{"') + len('"checks":{"')
        cut = draw(st.integers(key, line.index('"', key)))
        line = line[:cut] + "\n" + line[cut:]
    elif how == "joined":
        line += draw(st.sampled_from(_LINE_BREAKS)) + draw(
            st.sampled_from(_genuine_lines()))
    return line.encode()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_record_lines(), max_size=12), final=st.booleans(),
       block=st.sampled_from([1, 7, 64, records._BLOCK]))
# a multibyte sequence cut short by the newline: decoded with the newline it
# is an invalid continuation byte, without it an unexpected end of data
@example(lines=[b"\xe2\x82"], final=True, block=1)
@example(lines=[b"\xc3", b"\xc3"], final=False, block=records._BLOCK)
# a multibyte sequence cut short by the end of the file
@example(lines=[_PAIR_LINES["prop1"].encode(), b"\xe2\x82"], final=False,
         block=7)
# a byte that is not UTF-8 far past the first block of the line
@example(lines=[b'{"schema":1,"kind":"prop1","y":' + b"6" * 95 + b"\xff"],
         final=True, block=7)
# a checks key that is UTF-8 but not ASCII: a format error, not a decode one
@example(lines=['{"schema":1,"kind":"field","ok":true,"checks":{"caf\xe9":'
                'true}}'.encode()], final=True, block=7)
def test_block_reader_agrees_with_reading_line_by_line(tmp_path, monkeypatch,
                                                       lines, final, block):
    path = tmp_path / "r.jsonl"
    path.write_bytes(b"\n".join(lines) + (b"\n" if final and lines else b""))
    expected = _outcome(_read_line_by_line, path)
    monkeypatch.setattr(records, "_BLOCK", block)
    assert _outcome(read_records, path) == expected


# a last line that is not UTF-8 reaches the scan as lone surrogates
@pytest.mark.parametrize("last", [b"", b"\xff\n"], ids=["utf-8", "not"])
@pytest.mark.parametrize("block", [1, 7, 64, records._BLOCK])
@pytest.mark.parametrize("brk", _LINE_BREAKS)
def test_a_line_break_other_than_newline_joins_two_records(
        tmp_path, monkeypatch, block, brk, last):
    line = _PAIR_LINES["prop1"]
    path = tmp_path / "r.jsonl"
    path.write_bytes(f"{line}\n{line}{brk}{line}\n{line}\n".encode() + last)
    monkeypatch.setattr(records, "_BLOCK", block)
    recs, error = _outcome(read_records, path)
    assert (recs, error) == _outcome(_read_line_by_line, path)
    assert len(recs) == 1 and error.startswith(
        "line 2: prop1 bound_ok: needs true or false")


def test_block_scan_calls_a_pattern_once_per_line_and_per_kind_change(
        tmp_path, monkeypatch):
    lines = [_PAIR_LINES["prop1"], _PAIR_LINES["norm"]] * 40 + [
        _PAIR_LINES["norm"]] * 20
    path = tmp_path / "r.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    expected = [VerificationRecord.from_line(line) for line in lines]
    changes = 1 + sum(a != b for a, b in zip(lines, lines[1:]))
    calls = Counter()
    template = records._template

    def counted(kind):
        fullmatch, record = template(kind)

        def match(*args):
            calls[kind] += 1
            return fullmatch(*args)
        return match, record

    monkeypatch.setattr(records, "_template", counted)
    assert list(read_records(path)) == expected
    assert sum(calls.values()) <= len(lines) + changes


def test_a_line_longer_than_a_block_is_read_in_one_pass(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "r.jsonl"
    path.write_text('{"schema":1,"kind":"prop1"' + "x" * (8 << 20))
    monkeypatch.setattr(records, "_BLOCK", 4096)
    calls = Counter()

    class Counted:
        """The file read_records opens, counting its reads by method."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            calls[name] += 1
            return getattr(self.fh, name)

    monkeypatch.setattr(records, "open", lambda *args, **kwargs: Counted(
        open(*args, **kwargs)), raising=False)
    recs, error = _outcome(read_records, path)
    assert recs == [] and error.startswith("line 1: prop1 y: missing")
    # the line is one block: 4096 characters and one readline for the rest
    assert calls == {"read": 1, "readline": 1}


def test_record_payload_holds_only_values():
    assert prop1_record(6, 7, 6, True).payload == (6, 7, 6, True)
    for line in _genuine_lines():
        rec = VerificationRecord.from_line(line)
        fields = records._FIELDS[rec.kind]
        assert len(rec.payload) == len(fields)
        for value, (key, _) in zip(rec.payload, fields):
            assert rec.get(key) is value


def test_cli_check_records_reports_lines_before_a_malformed_one(tmp_path,
                                                                capsys):
    # records are checked as they are read: the failures before the bad
    # line are printed, then the run stops with exit 2
    forged = _PAIR_LINES["prop1"].replace('"gcd":"6"', '"gcd":"12"')
    lines = [forged, _PAIR_LINES["prop1"], forged, "garbage", forged]
    path = tmp_path / "r.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert run(["check-records", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ("record 1 (prop1): gcd(6,7) recomputes to 6\n"
                   "record 3 (prop1): gcd(6,7) recomputes to 6\n")
    assert err.startswith("error: line 4:")


# Linux carries a parent's peak RSS across fork and exec into the child's
# ru_maxrss, so each measured child is started by a small launcher, whose
# own peak is then the floor, not this process's
_PEAK_RSS = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],"
    " os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull,"
    " os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def _peak_rss_kb(*args) -> tuple[int, int]:
    """(exit code, peak RSS in kB) of a fresh ``python *args``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    code, kb = map(int, done.stdout.split())
    return code, kb


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in kB on Linux only")
def test_check_records_holds_one_record_at_a_time(tmp_path, capsys):
    path = tmp_path / "prop1.jsonl"
    assert run(["verify", "prop1", "--z-max", "320", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes().count(b"\n") == 50086
    _, base = _peak_rss_kb("-c", "import triboverify.cli")
    code, peak = _peak_rss_kb("-m", "triboverify.cli", "check-records",
                              str(path))
    assert code == 0
    assert peak - base < 10 * 1024, (base, peak)


def test_record_is_immutable_equal_and_hashable():
    rec = prop1_record(6, 7, 6, True)
    for name in ("kind", "payload", "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    again = VerificationRecord.from_line(rec.to_line())
    assert again == rec and hash(again) == hash(rec)
    assert hash(rec) == hash(("prop1", rec.payload))
    assert len({rec, again, prop1_record(6, 7, 6, False)}) == 2
    assert rec.get("gcd") == 6 and rec.get("bound_ok") is True
    with pytest.raises(KeyError):
        rec.get("d")


_FLAT_KINDS = ("triple", "prop1", "norm", "expansion", "search-summary")
_BIG = st.integers(-10 ** 30, 10 ** 30)
_FLAG = st.none() | st.booleans()


def _flat_values(small):
    """Values for every field of each flat kind, small structural integers
    drawn from ``small``."""
    return {
        "triple": st.tuples(_BIG, _BIG, _BIG, st.none() | small,
                            st.none() | small, st.none() | small,
                            st.booleans()),
        "prop1": st.tuples(small, small, _BIG, st.booleans()),
        "norm": st.tuples(small, small, _BIG, _BIG, st.booleans(),
                          st.booleans()),
        "expansion": st.tuples(small, small, small, st.integers(-1, 9),
                               st.fractions(), st.fractions(), _FLAG, _FLAG),
        "search-summary": st.tuples(st.sampled_from(["search", "brute"]),
                                    st.none() | small, st.none() | small,
                                    _FLAG, small),
    }


# mostly in range for every cap, or anywhere around the caps
_FLAT_VALUES = [_flat_values(st.integers(7, 100)),
                _flat_values(st.integers(-2, 2010))]


@st.composite
def _written_lines(draw) -> str:
    """A line to_line writes: a genuine one of any kind, or a flat kind's
    line with drawn values."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_genuine_lines()))
    kind = draw(st.sampled_from(_FLAT_KINDS))
    values = draw(draw(st.sampled_from(_FLAT_VALUES))[kind])
    return VerificationRecord(kind, values).to_line()


def _respell(draw, line: str) -> str:
    m = draw(st.sampled_from(list(re.finditer(r"-?[0-9]+", line))))
    # "1" and 4400 zeros is past int's default digit limit; int() reads
    # the Arabic-Indic six as a 6
    new = draw(st.sampled_from(["0{}", "-{}", "{}.0", "{}e0", "{}0",
                                "1" + "0" * 4400, "{}\u0666", "\\u0036",
                                "\\u00{:x}"]))
    digits = m.group()
    if new == "\\u00{:x}":      # escape one digit as a \u sequence
        i = draw(st.integers(0, len(digits) - 1))
        digits = digits[:i] + f"\\u00{ord(digits[i]):x}" + digits[i + 1:]
        return line[:m.start()] + digits + line[m.end():]
    return line[:m.start()] + new.format(digits) + line[m.end():]


@st.composite
def _respelt_lines(draw) -> str:
    line = draw(_written_lines())
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["number", "space", "swap", "repeat",
                                    "pad"]))
        parts = line[1:-1].split(',"')
        if how == "number" and re.search("[0-9]", line):
            line = _respell(draw, line)
        elif how == "space":
            i = draw(st.integers(0, len(line)))
            line = line[:i] + " " + line[i:]
        elif how in ("swap", "repeat") and len(parts) > 1:
            i = draw(st.integers(1, len(parts) - 1))
            j = draw(st.integers(0, len(parts) - 1))
            if how == "swap":
                parts[i], parts[j] = parts[j], parts[i]
            else:
                parts.insert(j + 1, parts[i])
            line = "{" + ',"'.join(parts) + "}"
        elif how == "pad":
            pad = draw(st.sampled_from([" ", "\t", "\r", "\n", "\u3000"]))
            line = (pad + line) if draw(st.booleans()) else (line + pad)
    return line


def _within_caps(rec: VerificationRecord) -> bool:
    """Whether every integer of rec lies within the caps of its field."""
    caps = {**_INT_CAPS, **_OTHER_INT_CAPS}.get(rec.kind, {})
    ints = [(rec.get(key), lo, hi) for key, (lo, hi) in caps.items()]
    if rec.kind == "lemma2":
        ints += [(n, lo, splitfield.WITNESS_PRIME_BOUND)
                 for pair in rec.payload[4:] if pair is not None
                 for n, lo in zip(pair, (3, 0))]
    if rec.kind == "growth":
        ints += [(n, 0, None) for n, _ in rec.get("failures")]
    return all(n is None or ((lo is None or lo <= n)
                             and (hi is None or n <= hi))
               for n, lo, hi in ints)


def _assert_parse_is_canonical(line: str) -> None:
    """from_line accepts line only as the line to_line writes for a record
    whose every integer lies within its caps, and refuses any other line
    with RecordFormatError alone."""
    try:
        rec = VerificationRecord.from_line(line)
    except RecordFormatError:
        return
    assert rec.to_line() == line
    assert _within_caps(rec), line


@settings(max_examples=600, deadline=None)
@given(line=_respelt_lines())
def test_parse_accepts_only_written_lines_within_caps(line):
    _assert_parse_is_canonical(line)


@pytest.fixture(scope="module")
def quick_file(tmp_path_factory):
    """The records of ``verify all --quick``."""
    path = tmp_path_factory.mktemp("quick") / "all.jsonl"
    assert run(["verify", "all", "--quick", "--out", str(path)]) == 0
    return path


def test_flat_kinds_parse_without_json(tmp_path, capsys, monkeypatch,
                                       quick_file):
    # a flat kind's line is read by its template alone: json.loads reads
    # only a checks object, so it never sees a flat line, and a template
    # that no longer matched its own lines would reject them
    path = tmp_path / "all.jsonl"
    path.write_bytes(quick_file.read_bytes())
    capsys.readouterr()
    with path.open("a", encoding="utf-8") as fh:
        for u, v, w in ((1, 3, 6), (1, 6, 12), (2, 5, 40)):
            fh.write(membership_triple_record(u, v, w).to_line() + "\n")
    true_loads = json.loads

    def loads(text, *args, **kwargs):
        assert not text.startswith(tuple(
            f'{{"schema":1,"kind":"{kind}"' for kind in _FLAT_KINDS)), text
        return true_loads(text, *args, **kwargs)

    monkeypatch.setattr(records, "json",
                        SimpleNamespace(loads=loads, dumps=json.dumps))
    kinds = [rec.kind for rec in read_records(path)]
    assert len(kinds) == 6213 and set(_FLAT_KINDS) <= set(kinds)


def _capped(lo, hi):
    """Integers lo <= n <= hi, with both caps drawn often."""
    return st.sampled_from([lo, hi]) | st.integers(lo, hi)


_UNCAPPED = st.sampled_from([0, -1, 10 ** 40]) | st.integers(-10 ** 6, 10 ** 6)
_TRIPLE_VALUES = _capped(1, TRIPLE_VALUE_CAP - 1)
_PAIR = _capped(4, PAIR_Z_MAX_CAP)
_EXPANSION = _capped(5, EXPANSION_INDEX_CAP)

# every value each flat kind's fields accept, caps, bools and nulls included
_VALID_FLAT_VALUES = {
    "triple": st.tuples(_TRIPLE_VALUES, _TRIPLE_VALUES, _TRIPLE_VALUES,
                        st.none() | _capped(0, 10 ** 6),
                        st.none() | _capped(0, 10 ** 6),
                        st.none() | _capped(0, 10 ** 6), st.booleans()),
    "prop1": st.tuples(_PAIR, _PAIR, _UNCAPPED, st.booleans()),
    "norm": st.tuples(_PAIR, _PAIR, _UNCAPPED, _UNCAPPED, st.booleans(),
                      st.booleans()),
    "expansion": st.tuples(_EXPANSION, _EXPANSION, _EXPANSION,
                           _capped(0, MAX_ORDER), st.fractions(),
                           st.fractions(), _FLAG, _FLAG),
    "search-summary": st.tuples(st.sampled_from(["search", "brute"]),
                                st.none() | _capped(7, SEARCH_Z_MAX_CAP),
                                st.none() | _capped(3, BRUTE_W_MAX_CAP),
                                _FLAG, _capped(0, 10 ** 6)),
}


def test_genuine_expansion_records_pass_without_escalating(
        tmp_path, capsys, monkeypatch, quick_file):
    # the quick file, and the expansion records of the full one (orders
    # 0..6 at (20, 25, 30)), are enclosed at the default precision
    full = tmp_path / "expansion.jsonl"
    assert run(["verify", "expansion", "--x", "20", "--y", "25", "--z", "30",
                "--t-max", "6", "--out", str(full)]) == 0
    seen = _recording_expansion_error(monkeypatch)
    for path in (quick_file, full):
        assert run(["check-records", str(path)]) == 0
    assert seen and set(seen) == {DEFAULT_PRECISION}
    capsys.readouterr()


def test_check_records_reads_flat_lines_by_template_and_one_floor_per_z(
        capsys, quick_file):
    records._prop1_floor.cache_clear()
    capsys.readouterr()
    assert run(["check-records", str(quick_file)]) == 0
    assert "PASS  records=6210 failures=0" in capsys.readouterr().out
    prop1_z = {json.loads(line)["z"] for line in quick_file.open()
               if '"kind":"prop1"' in line}
    assert records._prop1_floor.cache_info().misses == len(prop1_z)


class _BatteryRoute(Exception):
    """Raised by a battery function that a checker must not call."""


# the battery's own route for prop1 and growth: integer thresholds and
# comparisons of alpha**p read off power sums
_BATTERY_ROUTE = ("prop1_results", "prop1_threshold", "verify_growth_trace",
                  "cmp_alpha_power_trace", "alpha_power_trace")


def test_prop1_and_growth_checks_avoid_the_battery_route(
        capsys, monkeypatch, quick_file):
    # the prop1 and growth checks decide on enclosures, a second route to
    # the battery's verdicts: with every binding of the battery's
    # functions raising, the batteries fail and the quick file passes
    def battery_route(*args, **kwargs):
        raise _BatteryRoute

    rebound = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "triboverify":
            for attr in _BATTERY_ROUTE:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, battery_route)
                    rebound.add(attr)
    assert rebound == set(_BATTERY_ROUTE)
    for battery in (["prop1", "--z-max", "8"], ["growth", "--n-max", "8"]):
        with pytest.raises(_BatteryRoute):
            run(["verify", *battery])
    records._prop1_floor.cache_clear()
    capsys.readouterr()
    assert run(["check-records", str(quick_file)]) == 0
    assert "PASS  records=6210 failures=0" in capsys.readouterr().out


# the caps of each integer field of the flat kinds, None where unbounded
_INT_CAPS = {
    "triple": {**dict.fromkeys("uvw", (1, TRIPLE_VALUE_CAP - 1)),
               **dict.fromkeys("xyz", (0, None))},
    "prop1": {"y": (4, PAIR_Z_MAX_CAP), "z": (4, PAIR_Z_MAX_CAP),
              "gcd": (None, None)},
    "norm": {"y": (4, PAIR_Z_MAX_CAP), "z": (4, PAIR_Z_MAX_CAP),
             "d": (None, None), "norm3": (None, None)},
    "expansion": {**dict.fromkeys("xyz", (5, EXPANSION_INDEX_CAP)),
                  "t": (0, MAX_ORDER)},
    "search-summary": {"z_max": (7, SEARCH_Z_MAX_CAP),
                       "w_max": (3, BRUTE_W_MAX_CAP), "count": (0, None)},
}
# the same of the other kinds, those of lemma2 witnesses and growth
# failures aside
_OTHER_INT_CAPS = {
    "constants": {"precision_bits": (1, CONSTANTS_PRECISION_CAP)},
    "growth": {"n_max": (2, GROWTH_N_MAX_CAP), "checked": (0, None)},
}
# one digit past int's default limit of 4300
_LONG_DECIMAL = "1" + "0" * 4300


@st.composite
def _edge_lines(draw) -> str:
    """A flat kind's line with one or two fields respelt: an integer at a
    cap or one step beyond it, null, a bool, -0, 01 or a 4301-digit
    decimal, quoted or not."""
    kind = draw(st.sampled_from(_FLAT_KINDS))
    line = VerificationRecord(kind, draw(_VALID_FLAT_VALUES[kind])).to_line()
    fields = line[1:-1].split(",")
    for i in draw(st.sets(st.integers(2, len(fields) - 1), min_size=1,
                          max_size=2)):
        key, token = fields[i].split(":", 1)
        lo, hi = _INT_CAPS[kind].get(key.strip('"'), (None, None))
        caps = [str(n) for n in (lo, hi) if n is not None]
        beyond = ([] if lo is None else [str(lo - 1)]) + (
            [] if hi is None else [str(hi + 1)])
        numbers = caps + beyond + ["-0", "01", _LONG_DECIMAL]
        if caps and draw(st.booleans()):
            new = draw(st.sampled_from(caps))
        else:
            new = draw(st.sampled_from(numbers + ["null", "true", "false"]))
        # mostly in the field's own spelling, quoted for a decimal string
        if new in numbers and token.startswith('"') != draw(
                st.sampled_from([False, False, True])):
            new = f'"{new}"'
        fields[i] = f"{key}:{new}"
    return "{" + ",".join(fields) + "}"


@settings(max_examples=600, deadline=None)
@given(line=_edge_lines())
def test_parse_accepts_only_written_lines_within_caps_at_the_caps(line):
    _assert_parse_is_canonical(line)


def test_every_kind_has_a_compiled_format():
    assert all(records._format(kind) is not None
               for kind in records.RECORD_KINDS)


_WITNESSES = st.none() | st.tuples(_capped(3, splitfield.WITNESS_PRIME_BOUND),
                                   _capped(0, splitfield.WITNESS_PRIME_BOUND))
_CHECK_DICTS = st.dictionaries(st.text(max_size=6), st.booleans(), max_size=4)

# every value each kind's fields accept
_VALID_VALUES = {
    **_VALID_FLAT_VALUES,
    "lemma2": st.tuples(st.sampled_from(sorted(LEMMA2_CASES)),
                        st.tuples(*[st.fractions()] * 3), st.booleans(),
                        st.none() | st.tuples(*[st.fractions()] * 6),
                        _WITNESSES, _WITNESSES),
    "constants": st.tuples(_capped(1, CONSTANTS_PRECISION_CAP),
                           st.booleans(), _CHECK_DICTS),
    "growth": st.tuples(_capped(2, GROWTH_N_MAX_CAP), _capped(0, 10 ** 6),
                        st.booleans(),
                        st.lists(st.tuples(_capped(0, 10 ** 6),
                                           st.sampled_from(["lower",
                                                            "upper"])),
                                 max_size=3).map(tuple)),
    "field": st.tuples(st.booleans(), _CHECK_DICTS),
}


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_written_lines_parse_back(data):
    kind = data.draw(st.sampled_from(records.RECORD_KINDS))
    rec = VerificationRecord(kind, data.draw(_VALID_VALUES[kind]))
    assert VerificationRecord.from_line(rec.to_line()) == rec


def test_cli_check_records_rejects_a_deeply_nested_flat_field(tmp_path,
                                                              capsys):
    path = tmp_path / "r.jsonl"
    nested = "[" * 900 + "]" * 900
    path.write_text(_PAIR_LINES["prop1"].replace('"6"', nested) + "\n")
    assert run(["check-records", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1:")


# 100,000 levels: a list of lists, and an object of objects under a key
_NESTED = {"lists": "[" * 10 ** 5 + "]" * 10 ** 5,
           "objects": '{"a":' * 10 ** 5 + "true" + "}" * 10 ** 5}


@pytest.mark.parametrize("nested", sorted(_NESTED))
@pytest.mark.parametrize("kind", ["constants", "field"])
def test_cli_check_records_rejects_a_deeply_nested_checks_object(
        tmp_path, capsys, kind, nested):
    # the checks pattern admits only "key":true|false pairs, so json.loads
    # never meets the nesting
    genuine = _genuine_line(kind)
    checks = genuine[genuine.index('"checks":') + len('"checks":'):-1]
    path = tmp_path / "r.jsonl"
    path.write_text(genuine.replace(checks, _NESTED[nested]) + "\n")
    assert run(["check-records", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: line 1: {kind} checks:")
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# the shape of the command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["search", "--z-max", str(SEARCH_Z_MAX_CAP + 1)],
    ["brute", "--w-max", str(BRUTE_W_MAX_CAP + 1)],
])
def test_cli_search_refuses_sizes_over_the_record_caps(tmp_path, capsys,
                                                       argv):
    # check-records would reject the summary such a run writes
    path = tmp_path / "r.jsonl"
    assert run(argv + ["--out", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not path.exists()


def _s_100():
    # s_100 = alpha^100 + beta^100 + gamma^100 is an integer within 2e-13
    # of alpha^100, between T_102 and T_103
    s_100 = 3 * trib(102) - 2 * trib(101) - trib(100)
    assert s_100 == 291705319160032485504749131
    return s_100


def test_cli_member_decides_a_near_power_of_alpha_exactly(capsys):
    s_100 = _s_100()
    assert trib(102) < s_100 < trib(103)
    assert run(["member", str(s_100)]) == 0
    assert capsys.readouterr().out == f"{s_100} -\n"


def _no_enclosures(monkeypatch):
    """Make every binding of the enclosure powers and comparisons raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("membership built an enclosure")

    names = ("alpha_power", "beta_power", "cmp_alpha_power")
    for module in [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "triboverify"]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_membership_commands_build_no_enclosure(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "triples.jsonl"
    emit_records(path, [membership_triple_record(u, v, w) for u, v, w in
                        ((1, 3, 6), (1, 6, 12), (2, 5, 40), (1, 2, 3))])
    commands = [["member", "81", "82", "66012", str(_s_100())],
                ["search", "--z-max", "60"],
                ["brute", "--w-max", "2000"],
                ["check-records", str(path)]]
    today = []
    for argv in commands:
        today.append((run(argv), capsys.readouterr()))
    assert [code for code, _ in today] == [0, 0, 0, 0]
    assert today[0][1].out == f"81 10\n82 -\n66012 21\n{_s_100()} -\n"
    assert "PASS  records=4 failures=0" in today[3][1].out
    _no_enclosures(monkeypatch)
    for argv, want in zip(commands, today):
        assert (run(argv), capsys.readouterr()) == want, argv


def test_cli_verify_all_runs_the_single_commands(tmp_path, capsys):
    # verify all writes exactly what these commands write, in this order
    steps = [["verify", "constants"],
             ["verify", "growth", "--n-max", "500"],
             ["verify", "field"],
             ["verify", "lemma2"],
             ["verify", "prop1", "--z-max", "100"],
             ["verify", "norms", "--z-max", "60"],
             ["search", "--z-max", "40"],
             ["brute", "--w-max", "500"],
             ["verify", "expansion", "--x", "20", "--y", "25", "--z", "30",
              "--t-max", "4"]]
    parts = b""
    for i, argv in enumerate(steps):
        path = tmp_path / f"{i}.jsonl"
        assert run(argv + ["--out", str(path)]) == 0
        parts += path.read_bytes()
    whole = tmp_path / "all.jsonl"
    assert run(["verify", "all", "--quick", "--out", str(whole)]) == 0
    capsys.readouterr()
    assert whole.read_bytes() == parts


_PRECISION_FLAGS = {"--precision-bits", "--max-precision-bits"}
_ALL_SETTINGS = _PRECISION_FLAGS | {"--out"}
_SETTINGS_TAKEN = {
    "gen": set(),
    "member": set(),
    "check-records": _PRECISION_FLAGS,
    "search": {"--out"},
    "brute": {"--out"},
    "verify field": {"--out"},
    "verify constants": {"--precision-bits", "--out"},
    "verify prop1": _PRECISION_FLAGS | {"--out"},
    "verify norms": _PRECISION_FLAGS | {"--out"},
    "verify growth": _PRECISION_FLAGS | {"--out"},
    "verify expansion": _PRECISION_FLAGS | {"--out"},
    "verify lemma2": _ALL_SETTINGS,
    "verify all": _ALL_SETTINGS,
}


def _leaf_parsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_cli_commands_take_only_the_settings_they_read():
    taken = {name: {flag for action in leaf._actions
                    for flag in action.option_strings} & _ALL_SETTINGS
             for name, leaf in _leaf_parsers(build_parser())}
    assert taken == _SETTINGS_TAKEN
    assert sum(map(len, taken.values())) == 25


@pytest.mark.parametrize("argv", [
    ["gen", "--max-index", "3", "--out", "r.jsonl"],
    ["member", "81", "--out", "r.jsonl"],
    ["member", "81", "--precision-bits", "8"],
    ["search", "--z-max", "10", "--precision-bits", "64"],
    ["brute", "--w-max", "10", "--max-precision-bits", "64"],
    ["verify", "field", "--precision-bits", "64"],
    ["verify", "prop1", "--z-max", "9", "--witness-prime-bound", "100"],
    ["verify", "lemma2", "--witness-prime-bound", "5"],
    ["verify", "all", "--denominator-bound", "9"],
    ["check-records", "r.jsonl", "--out", "s.jsonl"],
])
def test_cli_refuses_settings_a_command_does_not_read(capsys, argv):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines()
            if line.startswith("triboverify ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 13


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    # the example without its comment, with its optional parts written out
    words = shlex.split(re.sub(r"[][]", "", line.split("#", 1)[0]))
    try:
        build_parser().parse_args(words[1:])
    except SystemExit:
        pytest.fail(f"README example does not parse: {line}")


# The prop1 battery decides by one power-sum threshold per z
# (gcdbound.prop1_threshold) and the checker by an enclosure of alpha**(3*z):
# below its floor (records._prop1_floor) by one integer comparison, above it
# by cmp_alpha_power, so a fault in either route is caught by the other.
# The pair (12, 18) is the only one with z = 18 and a gcd of 39 or more, so
# it is the only pair whose verdict moves when the threshold of z = 18 drops
# to 38, and the only one whose comparison is (54, 39**4).
_FLIPPED_PAIR = (12, 18)


def _named_pair():
    pairs = list(gcdbound.index_pairs(20))
    index = pairs.index(_FLIPPED_PAIR) + 1
    return (f"record {index} (prop1): bound verdict disagrees",
            f"FAIL  records={len(pairs)} failures=1")


def _flip_one_pair(monkeypatch, name):
    y, z = _FLIPPED_PAIR
    target = (3 * z, gcdbound.gcd_shifted(y, z) ** 4)
    true_cmp = getattr(gcdbound, name)

    def flipped(p, *args):
        # (p, n, precision_bits, max_precision_bits)
        got = true_cmp(p, *args)
        return Cmp(-got) if (p, args[-3]) == target else got

    monkeypatch.setattr(gcdbound, name, flipped)
    return _named_pair()


def _lower_one_threshold(monkeypatch):
    y, z = _FLIPPED_PAIR
    d = gcdbound.gcd_shifted(y, z)
    assert [y2 for y2 in range(4, z) if gcdbound.gcd_shifted(y2, z) >= d] \
        == [y]
    true_threshold = gcdbound.prop1_threshold

    def lowered(z2, *args):
        return d - 1 if z2 == z else true_threshold(z2, *args)

    monkeypatch.setattr(gcdbound, "prop1_threshold", lowered)
    return _named_pair()


def _floor_at_zero(monkeypatch, z):
    """Send every prop1 record of z past the checker's floor, to the
    enclosure comparison."""
    true_floor = records._prop1_floor

    def lowered(z2, bits):
        return 0 if z2 == z else true_floor(z2, bits)

    monkeypatch.setattr(records, "_prop1_floor", lowered)


def test_checker_catches_a_flipped_battery_verdict(tmp_path, capsys,
                                                   monkeypatch):
    genuine, path = tmp_path / "genuine.jsonl", tmp_path / "r.jsonl"
    assert run(["verify", "prop1", "--z-max", "20", "--out", str(genuine)]) == 0
    named, verdict = _lower_one_threshold(monkeypatch)
    assert run(["verify", "prop1", "--z-max", "20", "--out", str(path)]) == 1
    assert path.read_bytes() != genuine.read_bytes()
    capsys.readouterr()
    assert run(["check-records", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == named
    assert lines[1].endswith(verdict)


def test_battery_ignores_a_flipped_checker_verdict(tmp_path, capsys,
                                                   monkeypatch):
    genuine, path = tmp_path / "genuine.jsonl", tmp_path / "r.jsonl"
    assert run(["verify", "prop1", "--z-max", "20", "--out", str(genuine)]) == 0
    _floor_at_zero(monkeypatch, _FLIPPED_PAIR[1])
    named, verdict = _flip_one_pair(monkeypatch, "cmp_alpha_power")
    assert run(["verify", "prop1", "--z-max", "20", "--out", str(path)]) == 0
    assert path.read_bytes() == genuine.read_bytes()
    capsys.readouterr()
    assert run(["check-records", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == named
    assert lines[1].endswith(verdict)


def test_prop1_floor_lies_below_alpha_power_and_threshold():
    # r_z**4 < alpha**(3*z) for every z a record can name, and r_z <= m_z,
    # the largest integer with that property
    for z in range(1, PAIR_Z_MAX_CAP + 1):
        r = records._prop1_floor(z, DEFAULT_PRECISION)
        assert cmp_alpha_power(3 * z, r ** 4) == Cmp.GREATER
        assert r <= gcdbound.prop1_threshold(z)


@pytest.mark.parametrize("y, z", [(6, 7), (12, 18), (40, 45),
                                  (PAIR_Z_MAX_CAP - 1, PAIR_Z_MAX_CAP)])
def test_prop1_check_above_the_floor_agrees_with_prop1_holds(monkeypatch,
                                                              y, z):
    d = gcdbound.gcd_shifted(y, z)
    monkeypatch.setattr(records, "_prop1_floor", lambda z2, bits: d - 1)
    decided = []
    true_verdict = records._prop1_verdict

    def counting(*args):
        decided.append(args[:2])
        return true_verdict(*args)

    monkeypatch.setattr(records, "_prop1_verdict", counting)
    holds = gcdbound.prop1_holds(y, z)
    assert check_record(prop1_record(y, z, d, holds)) == (True, "ok")
    assert check_record(prop1_record(y, z, d, not holds)) == (
        False, "bound verdict disagrees")
    assert decided == [(z, d)] * 2


def test_check_records_past_the_floor_honours_the_precision_cap(
        tmp_path, capsys, monkeypatch):
    y, z = _FLIPPED_PAIR
    d = gcdbound.gcd_shifted(y, z)
    path = tmp_path / "r.jsonl"
    emit_records(path, [prop1_record(y, z, d, True)])
    bits_seen = []

    def straddling(p, bits):
        # an enclosure of alpha**54 that holds d**4 at every precision
        bits_seen.append(bits)
        return Enclosure(1, 2 * d ** 4)

    monkeypatch.setattr(constants_module, "alpha_power", straddling)
    argv = ["check-records", str(path), "--precision-bits", "16",
            "--max-precision-bits", "64"]
    # below the floor no comparison runs
    assert run(argv) == 0
    assert bits_seen == []
    _floor_at_zero(monkeypatch, z)
    assert run(argv) == 3
    assert "inconclusive:" in capsys.readouterr().err
    assert bits_seen == list(precision_ladder(16, 64))


def test_prop1_floor_cache_is_bounded_and_keyed_by_precision():
    floor = records._prop1_floor
    assert floor.cache_info().maxsize == PAIR_Z_MAX_CAP
    floor.cache_clear()
    for bits in (64, DEFAULT_PRECISION, DEFAULT_PRECISION):
        floor(18, bits)
    assert floor.cache_info()[:2] == (1, 2)   # (hits, misses)


# The growth battery decides by power sums (tribonacci.verify_growth_trace)
# and the checker by enclosures (constants.verify_growth), so a flipped
# comparison of alpha**7 with T_10 in either route is caught by the other.
_FLIPPED_GROWTH = (7, trib(10))


def _flip_growth(monkeypatch, module, name):
    true_cmp = getattr(module, name)

    def flipped(p, n, *args):
        got = true_cmp(p, n, *args)
        return Cmp(-got) if (p, n) == _FLIPPED_GROWTH else got

    monkeypatch.setattr(module, name, flipped)


def test_checker_catches_a_flipped_growth_battery_verdict(tmp_path, capsys,
                                                          monkeypatch):
    genuine, path = tmp_path / "genuine.jsonl", tmp_path / "r.jsonl"
    assert run(["verify", "growth", "--n-max", "20", "--out",
                str(genuine)]) == 0
    _flip_growth(monkeypatch, tribonacci, "cmp_alpha_power_trace")
    assert run(["verify", "growth", "--n-max", "20", "--out", str(path)]) == 1
    assert b'"failures":[[10,"lower"]]' in path.read_bytes()
    capsys.readouterr()
    assert run(["check-records", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("record 1 (growth): recomputation disagrees")
    assert lines[1].endswith("FAIL  records=1 failures=1")


def test_growth_battery_ignores_a_flipped_checker_verdict(tmp_path, capsys,
                                                          monkeypatch):
    genuine, path = tmp_path / "genuine.jsonl", tmp_path / "r.jsonl"
    assert run(["verify", "growth", "--n-max", "20", "--out",
                str(genuine)]) == 0
    _flip_growth(monkeypatch, constants_module, "cmp_alpha_power")
    assert run(["verify", "growth", "--n-max", "20", "--out", str(path)]) == 0
    assert path.read_bytes() == genuine.read_bytes()
    capsys.readouterr()
    assert run(["check-records", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("record 1 (growth): recomputation disagrees")
    assert '"failures":[[10,"lower"]]' in lines[0]
    assert lines[1].endswith("FAIL  records=1 failures=1")
