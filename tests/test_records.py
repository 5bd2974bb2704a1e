"""The contract every Record subclass keeps: frozen, equal by type and
fields, hashable, printed as Name(field=value, ...), built from exactly
its fields.

One sample per subclass, built by the package's own constructors where
there is one; a subclass without a sample fails the coverage test, so a
new record is checked as soon as it exists.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from freeset_lab.boundedfam import (
    BadSetBlock,
    BlockSystem,
    ClaimReport,
    GrowthFunction,
    MeasuredBlocks,
    SelectorReport,
    ShadowSet,
    build_block_system,
    build_ed_blocks,
    constant_growth,
)
from freeset_lab.freesets import Coloring
from freeset_lab.funcgraph import (
    FiniteFunction,
    Orbit,
    Record,
    Subset,
)
from freeset_lab.involutions import Involution, decompose_into_involutions
from freeset_lab.partitions import IntervalPartition, PartitionIntoParts
from freeset_lab.rosenthal import (
    Fragmentation,
    function_to_matrix,
    verify_fragmentation,
)


def _samples() -> list[Record]:
    fn = FiniteFunction((1, 2, 0, 4))
    return [
        fn,
        Subset(4, (0, 2)),
        Orbit("cycle", (0, 1, 2)),
        constant_growth(2, 1),
        build_block_system(constant_growth(2, 2), 2),
        ShadowSet((2,), 2, 3),
        ClaimReport((0, 3), ((0, 3, 1),), ()),
        build_ed_blocks(2),
        BadSetBlock((1,), Fraction(1)),
        SelectorReport(((1, 3),)),
        Involution((1, 0, 2)),
        decompose_into_involutions(fn),
        IntervalPartition((0, 2, 4)),
        PartitionIntoParts((0, 1, 0)),
        function_to_matrix(fn),
        Fragmentation(1, Fraction(1, 2)),
        Coloring((0, 1, 2)),
    ]


SAMPLES = _samples()


def _values(record: Record) -> list:
    return [getattr(record, name) for name in type(record)._fields]


def _subclasses(cls: type) -> set[type]:
    direct = set(cls.__subclasses__())
    return direct.union(*map(_subclasses, direct))


def test_every_record_has_a_sample():
    # WindowRecord holds no field of its own, so there is no record of it
    ours = {
        c
        for c in _subclasses(Record)
        if c.__module__.startswith("freeset_lab.") and c._fields
    }
    assert {type(r) for r in SAMPLES} == ours


@pytest.mark.parametrize(
    "record, field",
    [
        (FiniteFunction((1, 2, 0)), "values"),
        (Coloring((0, 1, 2)), "colors"),
        (PartitionIntoParts((0, 1, 0)), "parts"),
        (Involution((1, 0, 2)), "pairing"),
    ],
    ids=lambda r: type(r).__name__ if isinstance(r, Record) else r,
)
def test_window_documents_keep_one_rule(record, field):
    """The four window records read {"n": N, field: [...]} alike, and each
    fault gives the same text in all four, naming the field."""
    cls = type(record)
    doc = record.to_json()
    assert list(doc)[:2] == ["n", field] and cls.from_json(doc) == record

    def refusal(n, items):
        with pytest.raises(ValueError) as exc:
            cls.from_json({**doc, "n": n, field: items})
        return str(exc.value)

    items = doc[field]
    assert refusal(4, items) == f"n is 4, but {field} has length 3"
    assert refusal(2, items) == f"n is 2, but {field} has length 3"
    assert refusal(0, []) == "window must be positive"
    assert refusal(True, items) == "n is true, not an integer"
    with pytest.raises(ValueError, match="^window must be positive$"):
        cls(())


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_are_frozen_slots(record):
    cls = type(record)
    assert "__slots__" in cls.__dict__
    assert set(cls._fields) <= set(cls.__slots__)
    assert not hasattr(record, "__dict__")
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_equal_by_type_and_fields(record):
    cls = type(record)
    values = _values(record)
    twin = cls(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    # a record of another type holding the same values is a different record
    other = type("Other", (Record,), {"__slots__": cls._fields})(*values)
    assert other != record and record != other
    assert record != tuple(values)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_print_their_fields(record):
    names = type(record)._fields
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, _values(record)))
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_take_exactly_their_fields(record):
    cls = type(record)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*_values(record), None)


def test_derived_attributes_stay_out_of_equality_and_repr():
    assert repr(FiniteFunction((1, 0))) == "FiniteFunction(values=(1, 0))"
    assert FiniteFunction((1, 0)).injective_on_window is True
    matrix = function_to_matrix(FiniteFunction((1, 0)))
    assert "scaled" not in repr(matrix) and "scales" not in repr(matrix)
    assert matrix.scaled == ({1: 1}, {0: 1})
    assert repr(Subset(3, (0, 2))) == "Subset(window=3, elements=(0, 2))"
    assert repr(Involution((1, 0, 2))) == "Involution(pairing=(1, 0, 2))"
    assert Involution((1, 0, 2)).exceptions == (2,)
    system = BlockSystem(GrowthFunction((2, 3)), (0, 1, 2), (2, 3))
    assert repr(system) == (
        "BlockSystem(g=GrowthFunction(values=(2, 3)), i_endpoints=(0, 1, 2), "
        "f_sizes=(2, 3))"
    )
    assert (system.depth, system.j_starts) == (2, (0, 2, 5))
    blocks = MeasuredBlocks((1, 2), (Fraction(0), Fraction(1)))
    assert "starts" not in repr(blocks)
    assert blocks.starts == (0, 1, 3)
    failed = Fragmentation(1, Fraction(1, 2))
    assert repr(failed) == "Fragmentation(witness_row=1, witness_sum=Fraction(1, 2))"
    assert (failed.ok, Fragmentation(None, None).ok) == (False, True)


def test_fragmentation_witness_defaults_to_none():
    # a passing check names no witness; the record takes both fields
    matrix = function_to_matrix(FiniteFunction((1, 2, 0)))
    ok = verify_fragmentation(matrix, Subset(3, (0,)), Fraction(1))
    assert (ok.ok, ok.witness_row, ok.witness_sum) == (True, None, None)
    assert ok == Fragmentation(None, None)
    assert repr(ok) == "Fragmentation(witness_row=None, witness_sum=None)"
    with pytest.raises(TypeError):
        Fragmentation(None)


def test_post_init_still_normalises_and_checks():
    assert FiniteFunction([1, 0]).values == (1, 0)
    assert Involution([1, 0, 2]).pairing == (1, 0, 2)
    with pytest.raises(ValueError):
        Subset(3, (2, 1))
