import numpy as np
import pytest
from traces import from_fixed, to_fixed

from tcsnn.fixedpoint import (
    FRAC_BITS,
    RAW_MAX,
    RAW_MIN,
    SCALE,
    TOTAL_BITS,
    fixed_constant,
    fixed_mul,
    saturate,
)


def test_the_register_is_q15_16():
    assert TOTAL_BITS == 32
    assert FRAC_BITS == 16
    assert SCALE == 65536
    assert RAW_MIN == -(2**31)
    assert RAW_MAX == 2**31 - 1


def test_round_trip_scalars():
    for v in (0.0, 1.0, -1.0, 0.5, 3.25, -7.125):
        assert from_fixed(to_fixed(v)) == v


def test_round_trip_array():
    vals = np.array([0.0, 0.25, -2.5, 10.0])
    raw = to_fixed(vals)
    assert raw.dtype == np.int64
    assert np.array_equal(from_fixed(raw), vals)


def test_fixed_mul_floor_semantics():
    # (a*b) >> frac truncates toward negative infinity
    a = np.array([to_fixed(-0.5), to_fixed(1.5)])
    assert fixed_mul(a, 1).tolist() == [-1, 1]  # times one LSB
    assert from_fixed(fixed_mul(a, to_fixed(2.0))).tolist() == [-1.0, 3.0]


def test_fixed_mul_array_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.integers(-(2**20), 2**20, size=50)
    b = rng.integers(-(2**20), 2**20, size=50)
    arr = fixed_mul(a, b)
    for i in range(50):
        assert arr[i] == (int(a[i]) * int(b[i])) >> FRAC_BITS


def test_fixed_mul_int_by_array_matches_scalar():
    # the burst threshold fixed_mul(u_th_fp, g) multiplies an int by an int64 array
    a = to_fixed(-1.25)
    b = np.array([SCALE, 3, -7, RAW_MAX, RAW_MIN], dtype=np.int64)
    ctr = np.zeros(1, dtype=np.int64)
    arr = fixed_mul(a, b, ctr)
    assert arr.dtype == np.int64
    assert arr.tolist() == [a, -4, 8, RAW_MIN, RAW_MAX]  # floors, and clamps the last two
    assert ctr.tolist() == [2]


def test_saturation_counts_and_clamps():
    ctr = np.zeros(1, dtype=np.int64)
    out = saturate(np.array([RAW_MAX + 10, 0, RAW_MIN - 1]), ctr)
    assert ctr.tolist() == [2]
    assert out[0] == RAW_MAX and out[2] == RAW_MIN and out[1] == 0
    inside = np.array([RAW_MAX, RAW_MIN])
    assert saturate(inside, ctr) is inside
    assert ctr.tolist() == [2]  # in-range values do not count


def test_to_fixed_clamps_before_the_integer_cast():
    assert to_fixed(1e300) == RAW_MAX
    assert to_fixed(-1e308) == RAW_MIN  # past float range once scaled
    assert to_fixed(32768.0) == RAW_MAX  # one LSB past the register before rounding down
    assert to_fixed(-32768.0) == RAW_MIN  # exactly the lowest raw value
    raw = to_fixed(np.array([np.inf, 0.5, -1e300]))
    assert raw.tolist() == [RAW_MAX, SCALE // 2, RAW_MIN]


def test_fixed_constant_raises_for_a_value_the_register_cannot_hold():
    assert fixed_constant("x", -32768.0) == RAW_MIN
    assert fixed_constant("x", 32767.99999) == RAW_MAX  # rounds down onto the largest raw value
    for value in (32768.0, -32768.00001, 1e300, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="does not fit the 32-bit fixed-point format"):
            fixed_constant("x", value)


def test_per_row_counter_keeps_one_tally_per_row():
    ctr = np.zeros(3, dtype=np.int64)
    raw = np.array([[RAW_MAX + 1, 0], [0, 0], [RAW_MIN - 1, RAW_MAX + 5]])
    out = saturate(raw, ctr)
    assert ctr.tolist() == [1, 0, 2]
    assert out.tolist() == [[RAW_MAX, 0], [0, 0], [RAW_MIN, RAW_MAX]]
