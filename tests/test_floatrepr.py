"""``_floatrepr.repr_join`` gives the bytes of ``sep.join(map(float.__repr__, ...))``."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from stackpmf._floatrepr import repr_join

FLOAT_MAX = np.finfo(float).max
LARGEST_SUBNORMAL = math.ldexp(1.0, -1022) - math.ldexp(1.0, -1074)

#: Values where the digits, the layout or the rounding interval change.
EDGES = [
    0.0, 5e-324, LARGEST_SUBNORMAL, math.ldexp(1.0, -1022), 2.0**53, 1e-5, 1e-4, 1e15, 1e16, 1e22, 1e23,
    FLOAT_MAX, 1e100, 1e-100, 1.5e-300, 0.1, 1.0, 123456789012345680.0,
]


def ulp_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.concatenate([np.nextafter(values, -FLOAT_MAX), values, np.nextafter(values, FLOAT_MAX)])
    return np.concatenate([out, -out])


finite_bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_bits, max_size=50), st.text(max_size=8))
@example([], ",")
@example([-0.0, 0.0], "")
@example([5e-324, FLOAT_MAX], ",\n    ")
@example([1.5, -2.5e-7, 3e100], "\u00e9" * 300)
def test_any_finite_floats_and_separator(values, sep):
    values = np.array(values, dtype=float)
    assert repr_join(values, sep) == oracles.repr_join(values, sep)


@pytest.mark.parametrize("sep", [",\n    ", "", "é\U0001f600"])
def test_edge_values_and_their_neighbours(sep):
    values = ulp_neighbours(EDGES)
    assert repr_join(values, sep) == oracles.repr_join(values, sep)


def test_every_power_of_two_and_of_ten():
    values = ulp_neighbours(np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                                            [float(f"1e{k}") for k in range(-323, 309)]]))
    assert repr_join(values, ",") == oracles.repr_join(values, ",")


def test_positional_and_exponent_layouts():
    # short decimals at every decimal exponent, a zero, and views of other arrays
    values = np.array([float(f"{m}e{k}") for m in (1, 12, 123456789, 12345678901234567) for k in range(-330, 310)])
    values = values[np.isfinite(values)]
    assert repr_join(values, ",") == oracles.repr_join(values, ",")
    strided = np.stack([values, -values], axis=1)[:, 1]
    assert repr_join(strided, ", ") == oracles.repr_join(strided, ", ")


def test_random_bit_patterns():
    bits = np.random.default_rng(2020).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(float)
    values = values[np.isfinite(values)]
    assert repr_join(values, ",") == oracles.repr_join(values, ",")
