"""Value semantics of the slotted arithmetic types, and what a cold start
imports.

``CubicElement``, ``FieldElement`` and ``ComplexEnclosure`` are immutable
values: equal values compare and hash alike, an element of one field never
equals one of the other, and assigning an attribute raises.  The package
loads without ``dataclasses`` and the modules it pulls in, which a fresh
``triboverify`` process would otherwise pay for at every start."""

import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from triboverify.cli import run
from triboverify.enclosure import ComplexEnclosure, Enclosure
from triboverify.splitfield import CubicElement, FieldElement

ROOT = Path(__file__).resolve().parents[1]

_IMPORT_PROBE = """
import sys
import triboverify, triboverify.cli
print(" ".join(m for m in ("dataclasses", "inspect", "ast", "dis")
               if m in sys.modules))
"""


def test_cold_import_leaves_out_dataclasses_and_its_imports():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _values():
    """(make, other) per class: make() builds one fixed value afresh, and
    other is a different value of the same class."""
    half = Fraction(1, 2)
    return [
        (lambda: CubicElement((1, half, -3)), CubicElement((1, half, 3))),
        (lambda: FieldElement((1, half, -3, 0, 0, 7)),
         FieldElement((1, half, -3, 0, 0, 8))),
        (lambda: ComplexEnclosure(Enclosure(1, 2), Enclosure(-half, 0)),
         ComplexEnclosure(Enclosure(1, 2), Enclosure(-half, 1))),
    ]


@pytest.mark.parametrize("make, other", _values(),
                         ids=["cubic", "field", "complex"])
def test_equal_values_compare_and_hash_alike(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other and other != a


def test_an_element_equals_only_its_own_field():
    cubic = CubicElement((1, 2, 3))
    field = FieldElement((1, 2, 3, 0, 0, 0))
    assert cubic != field and field != cubic
    assert cubic != (1, 2, 3) and cubic.coords == (1, 2, 3)
    assert field != field.coords
    rect = ComplexEnclosure.point(1, 2)
    assert rect != (rect.re, rect.im)
    assert rect != Enclosure.point(1)


def test_int_and_fraction_coordinates_compare_and_hash_alike():
    ints = CubicElement((1, 2, 3))
    fracs = CubicElement((Fraction(1), Fraction(4, 2), Fraction(3)))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert all(type(c) is int for c in ints.coords)
    wide = FieldElement((0, 1, 0, 0, 0, Fraction(6, 3)))
    assert wide == FieldElement((0, 1, 0, 0, 0, 2))
    assert hash(wide) == hash(FieldElement((0, 1, 0, 0, 0, 2)))


@pytest.mark.parametrize("make, other", _values(),
                         ids=["cubic", "field", "complex"])
def test_assigning_an_attribute_raises(make, other):
    value = make()
    name = "re" if isinstance(value, ComplexEnclosure) else "coords"
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == before and value == make()


@pytest.mark.parametrize("make, other", _values(),
                         ids=["cubic", "field", "complex"])
def test_values_round_trip_through_pickle(make, other):
    value = make()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value


def test_reprs_are_unchanged():
    assert repr(CubicElement((1, Fraction(1, 2), -3))) == \
        "CubicElement(1, 1/2, -3)"
    assert repr(FieldElement((0, 1, 0, 0, 0, Fraction(-2, 3)))) == \
        "FieldElement(0, 1, 0, 0, 0, -2/3)"
    assert repr(ComplexEnclosure.point(Fraction(1, 4), -2)) == \
        "ComplexEnclosure(0.25 -2j)"


def test_verify_all_help_lists_the_run_config_flags_in_order(capsys):
    assert run(["verify", "all", "--help"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^  (--[\w-]+)", out, re.M) == [
        "--precision-bits", "--max-precision-bits", "--out", "--quick"]
