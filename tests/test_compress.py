import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from traces import decay_step, from_fixed

from tcsnn.compress import (
    compress_train,
    make_schedule,
    plan_time_constant,
    scale_time_constant,
)
from tcsnn.fixedpoint import to_fixed


def constants(plan, n_steps: int) -> np.ndarray:
    """Realized constant 2**k per step of a schedule."""
    return np.int64(1) << plan.shifts(n_steps)


def period(plan, cap: int = 4096):
    """Schedule period (accumulator returns exactly to zero), or None
    if none is found within ``cap`` steps (irrational/float-inexact targets)."""
    if plan.is_constant:
        return 1
    lo = float(1 << plan.k_low)
    hi = float(1 << plan.k_high)
    acc = 0.0
    for i in range(1, cap + 1):
        acc += plan.tau_nom_c_exact - lo
        if acc >= hi - lo:
            acc -= hi - lo
        if acc == 0.0:
            return i
    return None


def binned_oracle(dense_row: np.ndarray, gamma: int) -> np.ndarray:
    """Independent windowed-count oracle over the dense representation."""
    n = dense_row.size
    out_len = -(-n // gamma)
    padded = np.zeros(out_len * gamma, dtype=np.int64)
    padded[:n] = dense_row
    return padded.reshape(out_len, gamma).sum(axis=1)


class TestCompressTrain:
    def test_four_to_one_window(self):
        assert np.array_equal(compress_train(np.array([1, 0, 1, 1]), 4), [3])

    def test_gamma_one_is_identity(self):
        dense = np.array([[0, 1, 0, 0, 1, 0, 0, 1, 0], [1, 1, 0, 0, 0, 0, 0, 0, 1]])
        assert np.array_equal(compress_train(dense, 1), dense)

    def test_partial_final_window(self):
        # ceil(10/4) windows, the last one two steps long
        assert np.array_equal(compress_train(np.array([0] * 8 + [1, 1]), 4), [0, 0, 2])

    def test_weight_bounded_by_gamma(self):
        dense = np.ones((2, 32), dtype=np.int64)
        for gamma in range(1, 17):
            assert compress_train(dense, gamma).max() <= gamma

    @given(
        channels=st.integers(1, 4),
        steps=st.integers(1, 300),
        gamma=st.integers(1, 16),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(channels=2, steps=5, gamma=16, density=1.0, seed=0)  # gamma > steps: one window
    def test_conservation_and_windowing_random(self, channels, steps, gamma, density, seed):
        # the production window sum vs the pad-and-reshape oracle, row by row
        dense = (np.random.default_rng(seed).random((channels, steps)) < density).astype(np.int64)
        got = compress_train(dense, gamma)
        assert got.shape == (channels, -(-steps // gamma))
        assert np.array_equal(got.sum(axis=1), dense.sum(axis=1))
        for row, out in zip(dense, got):
            assert np.array_equal(out, binned_oracle(row, gamma))

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            compress_train(np.array([[1, 0, 0, 0]]), 0)


class TestScaleTimeConstant:
    def test_gamma_one_identity(self):
        assert scale_time_constant(6.5, 1) == 6.5

    def test_known_value_16_2(self):
        got = scale_time_constant(16.0, 2)
        assert got == pytest.approx(256 / 31, abs=1e-12)
        # cross-check: one compressed step equals two uncompressed ones
        assert (1 - 1 / got) == pytest.approx((15 / 16) ** 2, abs=1e-12)

    def test_linear_scaling_produces_large_error(self):
        exact = scale_time_constant(16.0, 4)
        assert exact == pytest.approx(4.3951445, abs=1e-6)
        linear = 16.0 / 4
        rel = abs(exact - linear) / exact
        assert rel > 0.05  # ~9%: naive division is badly wrong at large ratios

    def test_consistency_sweep(self):
        taus = [2.0**k for k in range(1, 13)]  # 2 .. 4096
        for tau in taus:
            for gamma in range(1, 17):
                tau_c = scale_time_constant(tau, gamma)
                assert abs((1 - 1 / tau_c) - (1 - 1 / tau) ** gamma) <= 1e-12
                assert 1.0 < tau_c <= tau

    def test_strictly_decreasing_in_gamma(self):
        for tau in (3.0, 16.0, 100.0, 4096.0):
            values = [scale_time_constant(tau, g) for g in range(1, 17)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_tau_at_most_one(self):
        with pytest.raises(ValueError):
            scale_time_constant(1.0, 2)
        with pytest.raises(ValueError):
            scale_time_constant(0.5, 2)


class TestSchedule:
    def test_power_of_two_constant(self):
        plan = make_schedule(8.0)
        assert plan.is_constant
        assert np.array_equal(constants(plan, 5), [8, 8, 8, 8, 8])
        assert period(plan) == 1

    def test_tau_five_period(self):
        plan = make_schedule(5.0)
        assert (plan.k_low, plan.k_high) == (2, 3)
        assert np.array_equal(constants(plan, 4), [4, 4, 4, 8])
        assert period(plan) == 4
        assert constants(plan, 4).mean() == 5.0

    def test_tau_ten_period(self):
        plan = make_schedule(10.0)
        assert np.array_equal(constants(plan, 4), [8, 8, 8, 16])
        assert constants(plan, 4).mean() == 10.0

    def test_quarter_grid_long_run_mean(self):
        for tau in np.arange(2.0, 16.25, 0.25):
            plan = make_schedule(float(tau))
            mean = constants(plan, 1024).mean()
            assert abs(mean - tau) <= 1e-6, f"tau={tau}: mean {mean}"

    def test_mean_exact_over_whole_periods(self):
        for tau in (2.5, 3.0, 5.0, 6.25, 11.75):
            plan = make_schedule(tau)
            p = period(plan)
            assert p is not None
            for reps in (1, 3):
                mean = constants(plan, p * reps).mean()
                assert abs(mean - tau) <= 1e-9

    def test_bounding_powers(self):
        plan = make_schedule(11.3)
        assert 2**plan.k_low <= 11.3 <= 2**plan.k_high
        assert plan.k_high == plan.k_low + 1

    def test_plan_scaling_invariant(self):
        for tau in (4.0, 16.0, 64.0):
            for gamma in (1, 3, 8, 16):
                plan = plan_time_constant(tau, gamma)
                assert abs((1 - 1 / plan.tau_nom_c_exact) - (1 - 1 / tau) ** gamma) <= 1e-12
                assert 2**plan.k_low <= plan.tau_nom_c_exact <= 2**plan.k_high

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(0.9)


class TestDecayStep:
    def test_zero_stays_zero(self):
        assert decay_step(0, 3) == 0

    def test_exact_shift_arithmetic(self):
        assert decay_step(256, 3) == 256 - 32

    def test_negative_values_arithmetic_shift(self):
        # -256 >> 3 == -32, so decay moves toward zero symmetrically here
        assert decay_step(-256, 3) == -224

    def test_k_zero_kills_value(self):
        assert decay_step(100, 0) == 0

    def test_array_input(self):
        out = decay_step(np.array([256, 0, -256]), 3)
        assert np.array_equal(out, [224, 0, -224])

    def test_schedule_tracks_real_valued_reference(self):
        # fixed-point shifter decay under the tau=5 schedule vs the same
        # schedule applied in real arithmetic: truncation error stays small
        # out to the half-life scale and beyond
        plan = make_schedule(5.0)
        ks = plan.shifts(1000)
        x = to_fixed(1.0)
        ref = 1.0
        half_life_checked = False
        for t in range(1000):
            x = decay_step(x, int(ks[t]))
            ref = ref * (1.0 - 2.0 ** (-float(ks[t])))
            if ref >= 0.5:
                continue
            if not half_life_checked:
                assert abs(from_fixed(x) - ref) / ref < 0.02
                half_life_checked = True
            if ref < 1e-3:
                break
        assert half_life_checked

