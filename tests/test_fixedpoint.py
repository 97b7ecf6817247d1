import numpy as np
import pytest
from traces import from_fixed

from tcsnn.fixedpoint import (
    FRAC_BITS,
    RAW_MAX,
    RAW_MIN,
    SCALE,
    TOTAL_BITS,
    SaturationCounter,
    fixed_mul,
    saturate,
    to_fixed,
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


def test_fixed_mul_scalar():
    a = to_fixed(1.5)
    b = to_fixed(2.0)
    assert from_fixed(fixed_mul(a, b)) == 3.0


def test_fixed_mul_floor_semantics():
    # (a*b) >> frac truncates toward negative infinity
    a = to_fixed(-0.5)
    b = 1  # one LSB
    assert fixed_mul(a, b) == -1


def test_fixed_mul_array_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.integers(-(2**20), 2**20, size=50)
    b = rng.integers(-(2**20), 2**20, size=50)
    arr = fixed_mul(a, b)
    for i in range(50):
        assert arr[i] == fixed_mul(int(a[i]), int(b[i]))


def test_fixed_mul_int_by_array_matches_scalar():
    # the burst threshold fixed_mul(u_th_fp, g) multiplies an int by an int64 array
    a = to_fixed(-1.25)
    b = np.array([SCALE, 3, -7, RAW_MAX, RAW_MIN], dtype=np.int64)
    ctr = SaturationCounter()
    arr = fixed_mul(a, b, ctr)
    assert arr.dtype == np.int64
    assert arr.tolist() == [fixed_mul(a, int(v)) for v in b] == [a, -4, 8, RAW_MIN, RAW_MAX]  # floors
    assert ctr.count == 2


def test_saturation_counts_and_clamps():
    ctr = SaturationCounter()
    out = saturate(np.array([RAW_MAX + 10, 0, RAW_MIN - 1]), ctr)
    assert ctr.count == 2
    assert out[0] == RAW_MAX and out[2] == RAW_MIN and out[1] == 0
    assert saturate(RAW_MAX, ctr) == RAW_MAX
    assert saturate(RAW_MIN, ctr) == RAW_MIN
    assert ctr.count == 2  # in-range scalar does not count


def test_scalar_saturation():
    ctr = SaturationCounter()
    assert saturate(1 << 40, ctr) == RAW_MAX
    assert saturate(-(1 << 40), ctr) == RAW_MIN
    assert saturate(np.int64(RAW_MAX + 1), ctr) == RAW_MAX  # a numpy scalar clamps as an int
    assert ctr.count == 3


def test_to_fixed_clamps_before_the_integer_cast():
    ctr = SaturationCounter()
    assert to_fixed(1e300, ctr) == RAW_MAX
    assert ctr.count == 1
    assert to_fixed(-1e308, ctr) == RAW_MIN  # past float range once scaled
    assert ctr.count == 2
    assert to_fixed(32768.0, ctr) == RAW_MAX  # one LSB past the register before rounding down
    assert to_fixed(-32768.0, ctr) == RAW_MIN  # exactly the lowest raw value: no clamp
    assert ctr.count == 3
    raw = to_fixed(np.array([np.inf, 0.5, -1e300]), ctr)
    assert raw.tolist() == [RAW_MAX, SCALE // 2, RAW_MIN]
    assert ctr.count == 5


def test_per_row_counter_keeps_one_tally_per_row():
    ctr = SaturationCounter(rows=3)
    raw = np.array([[RAW_MAX + 1, 0], [0, 0], [RAW_MIN - 1, RAW_MAX + 5]])
    out = saturate(raw, ctr)
    assert ctr.count.tolist() == [1, 0, 2]
    assert out.tolist() == [[RAW_MAX, 0], [0, 0], [RAW_MIN, RAW_MAX]]
    with pytest.raises(TypeError):
        saturate(RAW_MAX + 1, ctr)  # a scalar has no row
