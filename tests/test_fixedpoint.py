import numpy as np
import pytest
from traces import from_fixed

from tcsnn.fixedpoint import (
    DEFAULT_FORMAT,
    FixedPointFormat,
    SaturationCounter,
    fixed_mul,
    saturate,
    to_fixed,
)


def test_default_format():
    assert DEFAULT_FORMAT.total_bits == 32
    assert DEFAULT_FORMAT.frac_bits == 16
    assert DEFAULT_FORMAT.scale == 65536


def test_round_trip_scalars():
    for v in (0.0, 1.0, -1.0, 0.5, 3.25, -7.125):
        assert from_fixed(to_fixed(v)) == v


def test_round_trip_array():
    vals = np.array([0.0, 0.25, -2.5, 10.0])
    raw = to_fixed(vals)
    assert raw.dtype == np.int64
    assert np.array_equal(from_fixed(raw), vals)


def test_invalid_format_rejected():
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=16, frac_bits=16)
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=80, frac_bits=8)


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


def test_saturation_counts_and_clamps():
    fmt = FixedPointFormat(total_bits=16, frac_bits=8)
    ctr = SaturationCounter()
    out = saturate(np.array([fmt.raw_max + 10, 0, fmt.raw_min - 1]), fmt, ctr)
    assert ctr.count == 2
    assert out[0] == fmt.raw_max and out[2] == fmt.raw_min and out[1] == 0
    assert saturate(fmt.raw_max, fmt, ctr) == fmt.raw_max
    assert ctr.count == 2  # in-range scalar does not count


def test_scalar_saturation():
    fmt = FixedPointFormat(total_bits=8, frac_bits=0)
    ctr = SaturationCounter()
    assert saturate(1000, fmt, ctr) == 127
    assert saturate(-1000, fmt, ctr) == -128
    assert ctr.count == 2


def test_formats_wider_than_32_bits_rejected():
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=33, frac_bits=16)
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=64, frac_bits=16)
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=32, frac_bits=16, signed=False)
    assert FixedPointFormat(total_bits=31, frac_bits=16, signed=False).raw_max == (1 << 31) - 1


def test_to_fixed_clamps_before_the_integer_cast():
    fmt = DEFAULT_FORMAT
    ctr = SaturationCounter()
    assert to_fixed(1e300, fmt, ctr) == fmt.raw_max
    assert ctr.count == 1
    assert to_fixed(-1e308, fmt, ctr) == fmt.raw_min  # past float range once scaled
    assert ctr.count == 2
    raw = to_fixed(np.array([np.inf, 0.5, -1e300]), fmt, ctr)
    assert raw.tolist() == [fmt.raw_max, fmt.scale // 2, fmt.raw_min]
    assert ctr.count == 4


def test_per_row_counter_keeps_one_tally_per_row():
    fmt = FixedPointFormat(total_bits=16, frac_bits=8)
    ctr = SaturationCounter(rows=3)
    raw = np.array([[fmt.raw_max + 1, 0], [0, 0], [fmt.raw_min - 1, fmt.raw_max + 5]])
    out = saturate(raw, fmt, ctr)
    assert ctr.count.tolist() == [1, 0, 2]
    assert out.tolist() == [[fmt.raw_max, 0], [0, 0], [fmt.raw_min, fmt.raw_max]]
    with pytest.raises(TypeError):
        saturate(fmt.raw_max + 1, fmt, ctr)  # a scalar has no row
