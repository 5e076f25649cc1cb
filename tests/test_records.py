"""``_records.record``: the frozen record classes keep the construction,
repr, equality, hashing and immutability of the frozen dataclasses they
replace, and importing the CLI compiles no generated code."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftgibbs import (BrutePartition, Decoupling1dTables, Lemma212Tables,
                        ValidationError, Word, equilibrium_measure)
from shiftgibbs.bundled import BINARY, equal_pair, even_shift
from shiftgibbs.potentials import NormReport, Potential, ShapeTable
from shiftgibbs.shifts import Alphabet
from shiftgibbs.verify import InequalityRecord, LemmaReport

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclasses.dataclass(frozen=True)
class DataclassRecord:
    """The dataclass twin of ``InequalityRecord``."""

    name: str
    lhs: float
    rhs: float
    holds: bool


class TestConstruction:
    def test_positional_and_keyword(self):
        want = Word(BINARY, -1, (0, 1, 0))
        assert Word(alphabet=BINARY, start=-1, letters=(0, 1, 0)) == want
        assert Word(BINARY, letters=(0, 1, 0), start=-1) == want
        assert (want.alphabet, want.start, want.letters) == (BINARY, -1, (0, 1, 0))

    @pytest.mark.parametrize("args, kwargs, match", [
        ((BINARY, 0), {}, "missing a required argument: 'letters'"),
        ((BINARY,), {"letters": (1,)}, "missing a required argument: 'start'"),
        ((BINARY, 0, (1,), 5), {}, "too many positional arguments"),
        ((BINARY, 0, (1,)), {"stop": 2}, "unexpected keyword argument 'stop'"),
        ((BINARY, 0, (1,)), {"start": 2}, "multiple values for argument 'start'"),
    ])
    def test_bad_fields_raise_type_error(self, args, kwargs, match):
        with pytest.raises(TypeError, match=match):
            Word(*args, **kwargs)

    def test_post_init_normalises_and_refuses(self):
        assert Alphabet(["a", 1]).symbols == ("a", "1")
        assert Word(BINARY, 0, [np.int64(1)]).letters == (1,)
        with pytest.raises(ValidationError, match="alphabet must be nonempty"):
            Alphabet(())
        with pytest.raises(ValidationError, match="letter index 2 out of range"):
            Word(BINARY, 0, (0, 2))
        with pytest.raises(ValidationError, match="range must be nonnegative"):
            Potential(BINARY, -1, ())
        with pytest.raises(ValidationError, match="pattern length must match"):
            ShapeTable((0, 1), {(1,): 1.0})


class TestFrozen:
    @pytest.mark.parametrize("name", ["symbols", "extra"])
    def test_assign_and_delete_raise(self, name):
        alphabet = Alphabet(("0", "1"))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(alphabet, name, ("1",))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            delattr(alphabet, name)
        assert alphabet.symbols == ("0", "1")

    def test_cached_properties_still_cache(self):
        potential = equal_pair()
        tables = potential.step_tables
        assert potential.step_tables is tables
        assert potential.__dict__["step_tables"] is tables
        measure = equilibrium_measure(even_shift(), potential)
        assert measure.q is measure.q
        assert "q" in measure.__dict__


class TestEqualityAndRepr:
    def test_repr_matches_the_dataclass(self):
        args = ("a", 1.0, 2.0, True)
        assert repr(InequalityRecord(*args)) == repr(DataclassRecord(*args)).replace(
            "DataclassRecord", "InequalityRecord")
        assert repr(InequalityRecord(*args)) == (
            "InequalityRecord(name='a', lhs=1.0, rhs=2.0, holds=True)")
        assert repr(NormReport(0.5, 0.0)) == "NormReport(norm=0.5, cross_norm=0.0)"

    def test_eq_records_compare_and_hash_by_field_tuple(self):
        args = ("a", 1.0, 2.0, True)
        record = InequalityRecord(*args)
        assert record == InequalityRecord(*args)
        assert record != InequalityRecord("a", 1.0, 2.0, False)
        assert hash(record) == hash(args) == hash(DataclassRecord(*args))
        # another class with equal fields is not equal
        assert record != DataclassRecord(*args)
        assert record != args
        assert {Alphabet(("0", "1")), BINARY} == {BINARY}
        # a record holding a dict compares but, like the dataclass, cannot hash
        report = LemmaReport({"n": 1}, {}, (record,))
        assert report == LemmaReport({"n": 1}, {}, (InequalityRecord(*args),))
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)

    def test_eq_false_records_go_by_identity(self):
        words, energies = np.zeros((1, 1), dtype=np.uint8), np.zeros(1)
        one, two = BrutePartition(0.0, words, energies), BrutePartition(0.0, words, energies)
        assert one == one and one != two
        assert hash(one) == object.__hash__(one)
        for cls in (BrutePartition, Lemma212Tables, Decoupling1dTables):
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)


def test_import_runs_no_generated_code():
    """Importing the CLI after numpy execs no code object that does not come
    from a file (a dataclass's methods are compiled from ``<string>``)."""
    script = (
        "import os, sys\n"
        "import numpy\n"
        "generated = []\n"
        "def hook(event, args):\n"
        "    if event == 'exec' and not os.path.isfile(args[0].co_filename):\n"
        "        generated.append(args[0].co_filename)\n"
        "sys.addaudithook(hook)\n"
        "import shiftgibbs.cli\n"
        "print(len(generated), sorted(set(generated)))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout == "0 []\n"
