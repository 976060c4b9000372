"""repr_bytes against repr, byte for byte."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from test_cli import SPECIAL_VALUES
from uil.floatrepr import repr_bytes


def assert_repr(values, negate=True, batch=250_000):
    """Every value (and its negation), in batches, formatted as repr formats them."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if negate:
        values = np.concatenate([values, -values])
    for start in range(0, values.size, batch):
        part = values[start : start + batch]
        rows = np.concatenate([repr_bytes(part), np.full((part.size, 1), ord("\n"), np.uint8)], axis=1)
        got = rows.tobytes().translate(None, b"\0").decode()
        if got != "".join(f"{value!r}\n" for value in part.tolist()):
            for value, line in zip(part.tolist(), got.splitlines()):
                assert line == repr(value), value.hex()


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_special_values():
    assert_repr(SPECIAL_VALUES)


def test_powers_of_two_and_their_neighbours():
    # the powers of two are where the gap below a double halves
    assert_repr(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    assert_repr(neighbours([10.0**e for e in range(-323, 309)]))


def test_one_digit_decimals():
    assert_repr([float(f"{d}e{e}") for d in range(1, 10) for e in range(-324, 309)])


def test_smallest_subnormals():
    assert_repr(np.arange(1, 2**16, dtype=np.uint64).view(np.float64))


def test_layout_edges():
    # exponent form from 1e-05 and from 1e16 on
    assert_repr(neighbours([1e-4, 1e-5, 9999999999999998.0, 1e16, 0.001, 123456.0, 1e15]))


def test_random_bit_patterns():
    # both signs already; repr itself takes about 2.5 us a value here
    values = np.random.default_rng(20201).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    assert_repr(values[~np.isnan(values)], negate=False)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
def test_any_double(values):
    assert_repr(values)


def test_json_infinities_are_quoted():
    rows = repr_bytes(np.array([math.inf, -math.inf, 1e300]), quote_inf=True)
    assert [row[row != 0].tobytes() for row in rows] == [b'"inf"', b'"-inf"', b"1e+300"]


def test_nan_is_refused():
    with pytest.raises(ValueError):
        repr_bytes(np.array([1.0, math.nan]))
