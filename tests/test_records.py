"""Value types: immutable slotted records with equality, hash and repr by fields."""

from fractions import Fraction

import pytest

from phmaps import (ClassParams, Coefficient, DiskGrid, DistortionEnvelope, DistortionReport, ExtremalSpec, Family,
                    GeometryReport, MembershipReport, NeighborhoodReport, PhmapsError, RenderSpec, example_F1, hs,
                    hs_lambda, make_map, membership)
from phmaps.exact import Record
from phmaps.geometry import Extremum
from phmaps.sampling import SlotPlan


def records():
    """One instance of every record type, built as the package and the benchmark build them."""
    grid = DiskGrid(32, 256, 0.9)
    extremum = Extremum(0.5, 1, 2)
    return {
        "Coefficient": Coefficient(1, 2),
        "PolyharmonicMap": example_F1(),
        "ClassParams": hs_lambda(Fraction(1, 2)),
        "MembershipReport": membership(example_F1(), hs()),
        "ExtremalSpec": ExtremalSpec(n=3, k=2, lam=Fraction(1, 2), kind="antianalytic"),
        "NeighborhoodReport": NeighborhoodReport(Fraction(1, 5), Fraction(2, 5), True),
        "DistortionEnvelope": DistortionEnvelope("low", (1.0, -0.25, 0.0), (1.0, 0.25, 0.0)),
        "DiskGrid": grid,
        "Extremum": extremum,
        "GeometryReport": GeometryReport(grid, ("jacobian",), min_jacobian=extremum),
        "DistortionReport": DistortionReport("low", 0.0, 0.125),
        "RenderSpec": RenderSpec(grid=DiskGrid(4, 8, 0.9), samples_per_curve=128),
        "SlotPlan": SlotPlan(None, (), (("a", 2, 1, "re"),)),
    }


def test_every_record_type_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(records())


@pytest.mark.parametrize("name", sorted(records()))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = records()[name]
    for field in type(record).__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", ["Coefficient", "ClassParams", "MembershipReport", "DiskGrid", "Extremum"])
def test_equality_and_hash_go_by_fields(name):
    a, b = records()[name], records()[name]
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, field) for field in type(a)._fields))
    assert len({a, b}) == 1


def test_equality_needs_the_same_class_and_equal_fields():
    assert Coefficient(1, 2) != Coefficient(2, 1)
    assert Coefficient(1, 2) != (Fraction(1), Fraction(2))
    assert DiskGrid(32, 256, 0.9) != DiskGrid(32, 256, 0.8)
    assert Extremum(0.5, 1, 2) != Extremum(0.5, 1, 3)
    assert hs() != ClassParams(hs().family, 0, normalized=True)
    assert membership(example_F1(), hs()) != membership(example_F1(), hs_lambda(0))


def test_maps_compare_by_tables_and_are_unhashable():
    assert example_F1() == make_map(1, a={(2, 1): Fraction(1, 10)}, b={(2, 1): Fraction(1, 5)})
    assert example_F1() != make_map(2, a={(2, 1): Fraction(1, 10)}, b={(2, 1): Fraction(1, 5)})
    with pytest.raises(TypeError):
        hash(example_F1())


def test_repr_lists_fields_in_order():
    assert repr(Coefficient(1, 2)) == "Coefficient(re=Fraction(1, 1), im=Fraction(2, 1))"
    assert repr(hs()) == "ClassParams(family=<Family.HS: 'hs'>, lam=Fraction(0, 1), normalized=False)"
    assert repr(DiskGrid(32, 256, 0.9)) == "DiskGrid(rings=32, rays=256, r_max=0.9)"
    assert repr(example_F1()) == "PolyharmonicMap(p=1, a[1,1]=1+0i, a[2,1]=1/10+0i, b[2,1]=1/5+0i)"


def test_positional_keyword_and_default_forms_agree():
    assert Coefficient() == Coefficient(0, 0) == Coefficient(im=0, re=Fraction(0))
    assert DiskGrid() == DiskGrid(32, 256, 0.995) == DiskGrid(r_max=0.995, rays=256, rings=32)
    assert RenderSpec() == RenderSpec(DiskGrid(12, 24, 0.98), 256, 800, 800)
    assert ExtremalSpec(3, 2, Fraction(1, 2)) == ExtremalSpec(n=3, k=2, lam=Fraction(1, 2), kind="analytic",
                                                              phase=0.0)
    assert GeometryReport(DiskGrid(), ()).min_jacobian is None
    report = membership(example_F1(), hs())
    assert MembershipReport(*(getattr(report, field) for field in MembershipReport.__slots__)) == report


# --- the one generic constructor ------------------------------------------------

GENERIC = sorted(name for name, record in records().items() if type(record).__init__ is Record.__init__)

# (record, field, value): one invalid field per validating record, the rest as records() builds them
INVALID_FIELDS = [
    ("ClassParams", "lam", 2),
    ("ClassParams", "family", Family.HS),
    ("ExtremalSpec", "n", 1),
    ("ExtremalSpec", "n", 3.0),
    ("ExtremalSpec", "kind", "neither"),
    ("DiskGrid", "rays", 2),
    ("DiskGrid", "r_max", 1),
    ("RenderSpec", "samples_per_curve", 63),
    ("RenderSpec", "width", 100.5),
    ("PolyharmonicMap", "p", 0),
    ("PolyharmonicMap", "p", 1.5),
    ("PolyharmonicMap", "a", {(1, 1): 1, (2.5, 1): Fraction(1, 10)}),
]


def field_values(record):
    return {field: getattr(record, field) for field in type(record)._fields}


def test_only_coefficient_writes_its_own_constructor():
    assert set(records()) - set(GENERIC) == {"Coefficient"}
    assert all("__init__" not in vars(type(records()[name])) for name in GENERIC)


@pytest.mark.parametrize("name", sorted(records()))
def test_rebuilt_from_its_fields_by_position_and_by_keyword(name):
    record = records()[name]
    values = field_values(record)
    assert type(record)(*values.values()) == record
    assert type(record)(**values) == record


@pytest.mark.parametrize("name", sorted(records()))
def test_binding_errors_are_type_errors(name):
    record = records()[name]
    cls, values = type(record), field_values(record)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(*values.values(), values[first])  # too many values
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), **{first: values[first]})  # given twice


@pytest.mark.parametrize("name", GENERIC)
def test_binding_error_messages(name):
    record = records()[name]
    cls, values = type(record), field_values(record)
    first = next(iter(values))
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes {len(values)} values, got {len(values) + 1}$"):
        cls(*values.values(), values[first])
    with pytest.raises(TypeError, match=rf"^{name}\(\) has no field 'no_such_field'$"):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError, match=rf"^{name}\(\) got field '{first}' twice$"):
        cls(*values.values(), **{first: values[first]})


@pytest.mark.parametrize("name", GENERIC)
def test_a_missing_required_field_is_a_type_error(name):
    record = records()[name]
    cls, values = type(record), field_values(record)
    required = [field for field in values if field not in cls._defaults]
    for field in required:
        with pytest.raises(TypeError, match=rf"^{name}\(\) is missing field '{field}'$"):
            cls(**{other: value for other, value in values.items() if other != field})
    if not required:
        assert cls() == cls(**cls._defaults)


@pytest.mark.parametrize("name, field, value", INVALID_FIELDS)
def test_validating_records_raise_the_same_error_from_both_call_forms(name, field, value):
    values = {**field_values(records()[name]), field: value}
    cls = type(records()[name])
    with pytest.raises(PhmapsError) as by_position:
        cls(*values.values())
    with pytest.raises(PhmapsError) as by_keyword:
        cls(**values)
    assert type(by_position.value) is type(by_keyword.value)
    assert str(by_position.value) == str(by_keyword.value)
