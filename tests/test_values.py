"""The package's values are immutable tuples: each survives copy.copy,
copy.deepcopy and pickle at every protocol with its type, ==, hash and
repr, and none of its fields can be assigned."""

import copy
import pickle

import pytest

import charpoly
from charpoly import BinomPoly, CycleType, Partition, char_poly, dim_poly, r_primary

# one sample per class the package exports, exceptions aside
_EXPORTED_SAMPLES = {
    Partition: Partition([3, 1, 1]),
    CycleType: CycleType([1, 3, 2, 1]),
    BinomPoly: BinomPoly(2, [1, -3, 0, 4, 0]),
}

_EXPORTED = sorted(
    (value for value in vars(charpoly).values()
     if isinstance(value, type) and not issubclass(value, BaseException)),
    key=lambda cls: cls.__name__,
)

# built in the test, so that collecting it fills no memo
_RETURNED = {
    "char_poly": lambda: char_poly(Partition([3, 1]), 2),
    "r_primary": lambda: r_primary(3, 4),
    "dim_poly": lambda: dim_poly(Partition([3, 3])),
    "fixed_points": lambda: CycleType.of_counts({1: 10**6}),
}


def _assert_round_trips(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in copies:
        assert type(got) is type(value)
        assert got == value
        assert hash(got) == hash(value)
        assert repr(got) == repr(value)


def test_exports_found():
    assert {cls.__name__ for cls in _EXPORTED} >= {"Partition", "CycleType", "BinomPoly"}


@pytest.mark.parametrize("cls", _EXPORTED, ids=lambda cls: cls.__name__)
def test_exported_class_round_trips(cls):
    assert cls in _EXPORTED_SAMPLES, f"no sample of the exported class {cls.__name__}"
    sample = _EXPORTED_SAMPLES[cls]
    assert type(sample) is cls
    _assert_round_trips(sample)


@pytest.mark.parametrize("name", _RETURNED)
def test_returned_value_round_trips(name):
    _assert_round_trips(_RETURNED[name]())


def test_fields_cannot_be_assigned():
    p, ct = dim_poly(Partition([3, 3])), CycleType([3, 1, 1])
    for value, field in ((p, "coeffs"), (ct, "support"), (ct, "fixed")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_fixed_points_pickle_as_counts():
    # a pickle holds the count of each length, not the n cycles
    ct = CycleType.of_counts({1: 10**6})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert len(pickle.dumps(ct, protocol)) < 200, protocol


def test_make_and_replace_go_through_the_constructors():
    # both build through the constructors, so they normalise and check
    p = BinomPoly(0, (1,))
    assert p._replace(coeffs=(1, 0)) == BinomPoly(0, (1, 0)) == p
    assert BinomPoly._make((2, [1, -3, 0, 0])) == BinomPoly(2, [1, -3])
    assert type(p._replace(shift=3)) is BinomPoly
    ct = CycleType([2, 1])
    with pytest.raises(ValueError, match=r"^cycle counts must be >= 0, got -3 of length 1$"):
        ct._replace(fixed=-3)
    with pytest.raises(ValueError, match=r"^cycle lengths must be >= 1, got 0$"):
        ct._replace(support=(2, 0))
    assert repr(CycleType._make(([1, 2], 0))) == "CycleType(cycles=Partition(2, 1))"
    assert ct._replace(fixed=3) == CycleType([2, 1, 1, 1])
    assert ct._replace(support=(2, 3, 2)).support == Partition([3, 2, 2])
    assert CycleType._make((Partition([3]), 2)) == CycleType([3, 1, 1])
