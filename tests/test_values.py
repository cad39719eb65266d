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
