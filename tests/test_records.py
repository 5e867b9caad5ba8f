"""Value types: immutable slotted records with equality, hash and repr by fields."""

from fractions import Fraction

import pytest

from phmaps import (ClassParams, Coefficient, DiskGrid, DistortionEnvelope, DistortionReport, ExtremalSpec,
                    GeometryReport, MembershipReport, NeighborhoodReport, RenderSpec, example_F1, hs, hs_lambda,
                    make_map, membership)
from phmaps.exact import Record
from phmaps.geometry import Extremum
from phmaps.sampling import SlotPlan


def records():
    """One instance of every record type, built as the package and the benchmark build them."""
    grid = DiskGrid(32, 256, 0.9)
    extremum = Extremum(0.5, 1, 2, 0.25, 0.125)
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
    assert hash(a) == hash(tuple(getattr(a, field) for field in type(a).__slots__))
    assert len({a, b}) == 1


def test_equality_needs_the_same_class_and_equal_fields():
    assert Coefficient(1, 2) != Coefficient(2, 1)
    assert Coefficient(1, 2) != (Fraction(1), Fraction(2))
    assert DiskGrid(32, 256, 0.9) != DiskGrid(32, 256, 0.8)
    assert Extremum(0.5, 1, 2, 0.25, 0.125) != Extremum(0.5, 1, 3, 0.25, 0.125)
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
