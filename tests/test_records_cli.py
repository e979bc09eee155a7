"""Record format: byte-stable lines, round trips, independent re-checking;
CLI: exit codes, env/flag config, deterministic output across jobs."""

import argparse
import json

import pytest

from triboverify.cli import RunConfig, UsageError, load_config, run
from triboverify.expansion import decay_report
from triboverify.gcdbound import norm_witness
from triboverify.records import (RecordFormatError, VerificationRecord,
                                 check_record, emit_records,
                                 expansion_records,
                                 membership_triple_record, norm_record,
                                 prop1_record, read_records,
                                 search_summary_record)


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
    with pytest.raises(RecordFormatError):
        VerificationRecord("prop1", (("z", 7), ("y", 6), ("gcd", "6"),
                                     ("bound_ok", True)))


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
    assert read_records(path) == records
    text = path.read_text()
    assert text.endswith("\n") and "\r" not in text

    path.write_text(text + "garbage\n")
    with pytest.raises(RecordFormatError) as err:
        read_records(path)
    assert "6" in str(err.value)   # line number of the bad row


def test_load_config_env_and_flags():
    ns = argparse.Namespace(precision_bits=None, jobs=None)
    config = load_config(ns, environ={"TRIBOVERIFY_PRECISION_BITS": "256"})
    assert config.precision_bits == 256

    ns = argparse.Namespace(precision_bits=512, jobs=None)
    config = load_config(ns, environ={"TRIBOVERIFY_PRECISION_BITS": "256"})
    assert config.precision_bits == 512   # flag wins

    with pytest.raises(UsageError):
        load_config(argparse.Namespace(),
                    environ={"TRIBOVERIFY_JOBS": "banana"})
    with pytest.raises(UsageError):
        load_config(argparse.Namespace(precision_bits=-8), environ={})


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(jobs=0).validate()
    with pytest.raises(UsageError):
        RunConfig(precision_bits=64, max_precision_bits=32).validate()


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TRIBOVERIFY_PRECISION_BITS", raising=False)
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

    monkeypatch.setenv("TRIBOVERIFY_PRECISION_BITS", "banana")
    assert run(["verify", "field"]) == 2
    capsys.readouterr()


def test_cli_member_output(capsys):
    assert run(["member", "81", "3", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["81 10", "3 -", "0 0"]


def test_cli_records_deterministic_across_jobs(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["verify", "norms", "--z-max", "20", "--out", str(a)]) == 0
    assert run(["verify", "norms", "--z-max", "20", "--jobs", "4",
                "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    assert run(["check-records", str(a)]) == 0
    capsys.readouterr()


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


def test_cli_verdict_lines(capsys):
    assert run(["verify", "constants"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.fixture(scope="module")
def expansion_lines():
    """Genuine expansion records at (20, 25, 30), orders 0..2, as dicts."""
    report = decay_report(20, 25, 30, 2)
    return [json.loads(rec.to_line()) for rec in expansion_records(report)]


def _check_edited(tmp_path, record: dict, **edits) -> int:
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps({**record, **edits},
                               separators=(",", ":")) + "\n")
    return run(["check-records", str(path)])


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


@pytest.mark.parametrize("flag", ["decreasing", "ratio_ok"])
def test_cli_check_records_flags_forged_expansion_verdict(
        tmp_path, capsys, expansion_lines, flag):
    record = expansion_lines[2]
    assert record[flag] is True
    assert _check_edited(tmp_path, record, **{flag: False}) == 1
    assert "verdict" in capsys.readouterr().out
