import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from traces import from_fixed, to_fixed

from tcsnn.fixedpoint import RAW_MAX, SCALE
from tcsnn.neuron import (
    MODELS,
    LIFParams,
    SynapseParams,
    _second_order_peak,
    burst_gain_update,
    compile_neuron,
    integrate_fire,
    new_neuron_state,
    synapse_step,
)


def burst_g_update(g_prev, fired_prev, spike_weight, beta: float):
    """Burst function update (real-valued reference semantics).

    Sources that fired last step scale their g by beta**spike_weight (the
    weight of that spike; binary mode passes 1); all others reset to 1.
    """
    g_prev = np.asarray(g_prev, dtype=np.float64)
    fired = np.asarray(fired_prev, dtype=bool)
    w = np.asarray(spike_weight, dtype=np.float64)
    out = np.where(fired, beta**w * g_prev, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


ZEROTH = SynapseParams(order="zeroth")


def leakless_params(n_max=7, R=1.0, model="iow-lif", beta=1.5):
    return LIFParams(model=model, tau_m_nom=math.inf, u_th=1.0, R=R, n_max=n_max, beta=beta, synapse=ZEROTH)


def fp_vec(*values):
    return np.array([to_fixed(v) for v in values], dtype=np.int64)


class TestSynapseStep:
    def test_zeroth_order_passthrough(self):
        comp = compile_neuron(leakless_params(), 1)
        state = new_neuron_state(3)
        drive = fp_vec(0.5, -1.0, 2.0)
        assert np.array_equal(synapse_step(state, drive, comp), drive)

    def test_first_order_impulse_geometric(self):
        # unit impulse: I(t) = q * (3/4)^t for tau_s = 4
        params = LIFParams(synapse=SynapseParams(order="first", tau_s1_nom=4.0, q=1.0))
        comp = compile_neuron(params, 1)
        state = new_neuron_state(1)
        ks = comp.tau_s1_plan.shifts(20)
        outs = []
        for t in range(20):
            drive = fp_vec(1.0) if t == 0 else fp_vec(0.0)
            outs.append(from_fixed(synapse_step(state, drive, comp, k_s1=int(ks[t]))[0]))
        for t, got in enumerate(outs):
            assert got == pytest.approx(0.75**t, abs=1e-3)

    def test_first_order_decays_to_negligible(self):
        # shifter decay has a truncation deadband: positive values stall
        # once x >> k is 0, i.e. below 2**k raw units (~1e-4 of threshold)
        params = LIFParams(synapse=SynapseParams(order="first", tau_s1_nom=4.0))
        comp = compile_neuron(params, 1)
        state = new_neuron_state(1)
        prev = int(synapse_step(state, fp_vec(3.0), comp, k_s1=2)[0])
        for _ in range(200):
            out = int(synapse_step(state, fp_vec(0.0), comp, k_s1=2)[0])
            assert out <= prev
            prev = out
        assert out < 4
        assert from_fixed(out) < 1e-4

    def test_second_order_unimodal_peak_near_q(self):
        params = LIFParams(synapse=SynapseParams(order="second", tau_s1_nom=4.0, tau_s2_nom=8.0, q=1.0))
        comp = compile_neuron(params, 1)
        state = new_neuron_state(1)
        k1 = comp.tau_s1_plan.shifts(60)
        k2 = comp.tau_s2_plan.shifts(60)
        outs = []
        for t in range(60):
            drive = fp_vec(1.0) if t == 0 else fp_vec(0.0)
            outs.append(from_fixed(synapse_step(state, drive, comp, int(k1[t]), int(k2[t]))[0]))
        outs = np.array(outs)
        peak = int(np.argmax(outs))
        assert 0 < peak < 59  # single interior maximum
        assert all(a <= b + 1e-9 for a, b in zip(outs[: peak + 1], outs[1 : peak + 1]))
        assert all(a >= b - 1e-9 for a, b in zip(outs[peak:], outs[peak + 1 :]))
        assert outs[peak] == pytest.approx(1.0, rel=0.05)

    # the default pair, a slow rise, and two pairs peaking past step 100,000
    # (near 138,629 and 277,259), where a search capped there fell short
    @pytest.mark.parametrize("tau_rise, tau_decay", [(4.0, 8.0), (40.0, 2.0), (1e5, 2e5), (2e5, 4e5)])
    def test_second_order_peak_is_the_discrete_maximum(self, tau_rise, tau_decay):
        a_r, a_d = 1.0 - 1.0 / tau_rise, 1.0 - 1.0 / tau_decay
        t = np.arange(1, 10**6, dtype=np.float64)
        brute = np.abs(a_d**t - a_r**t).max()
        assert _second_order_peak(tau_rise, tau_decay) == pytest.approx(brute, rel=1e-12)
        if tau_rise >= 1e5:  # near the continuous e**(-t/2T) - e**(-t/T), whose peak is 1/4
            assert _second_order_peak(tau_rise, tau_decay) == pytest.approx(0.25, abs=1e-5)


class TestLifStep:
    def test_rest_stays_at_rest(self):
        comp = compile_neuron(LIFParams(model="lif", tau_m_nom=8.0, synapse=ZEROTH), 1)
        state = new_neuron_state(1)
        for _ in range(10):
            out = integrate_fire(state, fp_vec(0.0), comp, k_m=3)
        assert state.u[0] == 0 and out[0] == 0

    def test_subthreshold_equilibrium_never_fires(self):
        # constant drive with equilibrium u* = R*I = 0.8 < u_th
        comp = compile_neuron(LIFParams(model="lif", tau_m_nom=8.0, u_th=1.0, R=1.0, synapse=ZEROTH), 1)
        state = new_neuron_state(1)
        for _ in range(500):
            out = integrate_fire(state, fp_vec(0.8), comp, k_m=3)
            assert out[0] == 0
        assert from_fixed(state.u[0]) == pytest.approx(0.8, abs=0.01)

    def test_threshold_crossing_soft_reset(self):
        comp = compile_neuron(leakless_params(model="lif"), 1)
        state = new_neuron_state(1)
        state.u[0] = to_fixed(1.3)
        out = integrate_fire(state, fp_vec(0.0), comp)
        assert out[0] == 1
        assert state.u[0] == to_fixed(1.3) - to_fixed(1.0)


class TestIowStep:
    def test_weight_two_reset(self):
        comp = compile_neuron(leakless_params(), 1)
        state = new_neuron_state(1)
        state.u[0] = to_fixed(2.5)
        out = integrate_fire(state, fp_vec(0.0), comp)
        assert out[0] == 2
        assert state.u[0] == to_fixed(0.5)

    def test_below_threshold_no_reset(self):
        comp = compile_neuron(leakless_params(), 1)
        state = new_neuron_state(1)
        state.u[0] = to_fixed(0.9)
        out = integrate_fire(state, fp_vec(0.0), comp)
        assert out[0] == 0
        assert state.u[0] == to_fixed(0.9)

    def test_saturated_output_keeps_residual(self):
        comp = compile_neuron(leakless_params(n_max=7), 1)
        state = new_neuron_state(1)
        state.u[0] = to_fixed(9.0)
        out = integrate_fire(state, fp_vec(0.0), comp)
        assert out[0] == 7
        assert state.u[0] == to_fixed(2.0)  # above u_th: fires again next step
        out = integrate_fire(state, fp_vec(0.0), comp)
        assert out[0] == 2

    def test_residual_bounded_below_saturation(self):
        rng = np.random.default_rng(3)
        comp = compile_neuron(leakless_params(n_max=7, R=0.3), 1)
        state = new_neuron_state(1)
        for _ in range(300):
            w = int(rng.integers(0, 8))
            out = integrate_fire(state, np.array([w << 16]), comp)
            if out[0] < comp.n_max:
                assert 0 <= state.u[0] < comp.u_th_fp
            else:
                assert state.u[0] >= 0

    def test_iw_clamps_output_and_single_reset(self):
        comp = compile_neuron(leakless_params(model="iw-lif"), 1)
        state = new_neuron_state(1)
        state.u[0] = to_fixed(2.5)
        out = integrate_fire(state, fp_vec(0.0), comp)
        assert out[0] == 1
        assert state.u[0] == to_fixed(1.5)

    def test_iw_below_threshold(self):
        comp = compile_neuron(leakless_params(model="iw-lif"), 1)
        state = new_neuron_state(1)
        state.u[0] = to_fixed(0.5)
        assert integrate_fire(state, fp_vec(0.0), comp)[0] == 0


def baseline_count_oracle(binary_steps, r_fp, u_th_fp, n_max):
    """Plain-python reimplementation of the leakless baseline neuron."""
    u = 0
    total = 0
    for bit in binary_steps:
        u += r_fp * int(bit)
        k = min(u // u_th_fp, n_max)
        if k > 0:
            u -= k * u_th_fp
            total += k
    return total


class TestLeaklessConservation:
    def test_output_mass_matches_baseline_for_all_gammas(self):
        rng = np.random.default_rng(42)
        params = leakless_params(n_max=7, R=0.3)
        r_fp = to_fixed(0.3)
        for _ in range(30):
            length = int(rng.integers(20, 400))
            bits = (rng.random(length) < rng.random()).astype(np.int64)
            expected = baseline_count_oracle(bits, r_fp, 1 << 16, 7)
            for gamma in (1, 2, 3, 5, 8, 16):
                comp = compile_neuron(params, gamma)
                state = new_neuron_state(1)
                out_len = -(-length // gamma)
                padded = np.zeros(out_len * gamma, dtype=np.int64)
                padded[:length] = bits
                weights = padded.reshape(out_len, gamma).sum(axis=1)
                total = 0
                for w in weights:
                    total += int(integrate_fire(state, np.array([int(w) << 16]), comp)[0])
                assert abs(total - expected) <= 1


class TestBurst:
    def test_not_fired_resets_to_one(self):
        assert burst_g_update(0.3, False, 0, beta=1.5) == 1.0

    def test_iow_exponent(self):
        assert burst_g_update(1.0, True, 2, beta=0.7) == pytest.approx(0.49)

    def test_weight_one_reduces_to_binary_rule(self):
        rng = np.random.default_rng(17)
        for beta in (0.5, 0.9, 1.3, 2.0):
            g_bin = 1.0
            g_iow = 1.0
            for _ in range(2000):
                fired = bool(rng.random() < 0.4)
                g_bin = burst_g_update(g_bin, fired, 1, beta)
                g_iow = burst_g_update(g_iow, fired, 1, beta)
                assert g_bin == g_iow

    def test_beta_one_burst_equals_plain_iow(self):
        params = LIFParams(tau_m_nom=8.0, u_th=1.0, R=0.5, n_max=7, synapse=ZEROTH)
        comp_b = compile_neuron(replace(params, model="iow-burst-lif", beta=1.0), 1)
        comp_p = compile_neuron(params, 1)
        st_b = new_neuron_state(1, bursting=True)
        st_p = new_neuron_state(1)
        rng = np.random.default_rng(8)
        for _ in range(500):
            drive = np.array([int(rng.integers(0, 5)) << 16])
            out_b = integrate_fire(st_b, drive, comp_b, k_m=3)
            out_p = integrate_fire(st_p, drive, comp_p, k_m=3)
            assert out_b[0] == out_p[0]
            assert st_b.u[0] == st_p.u[0]

    def test_threshold_set_scales_with_g(self):
        comp = compile_neuron(leakless_params(model="iow-burst-lif", beta=0.8), 1)
        state = new_neuron_state(1, bursting=True)
        state.prev_out[0] = 1  # fired last step: g becomes beta * 1 = 0.8
        thr = (to_fixed(0.8) * comp.u_th_fp) >> 16
        state.u[0] = to_fixed(1.2)  # 1.5 * g * u_th
        out = integrate_fire(state, np.zeros(1, dtype=np.int64), comp)
        assert out[0] == 1
        assert state.u[0] == to_fixed(1.2) - thr

    def test_binary_burst_step_resets_by_g_uth(self):
        comp = compile_neuron(leakless_params(model="burst-lif", beta=2.0), 1)
        state = new_neuron_state(1, bursting=True)
        state.u[0] = to_fixed(1.5)
        out = integrate_fire(state, np.zeros(1, dtype=np.int64), comp)
        assert out[0] == 1 and state.u[0] == to_fixed(0.5)
        # fired last step: threshold now 2*u_th
        state.u[0] = to_fixed(1.5)
        out = integrate_fire(state, np.zeros(1, dtype=np.int64), comp)
        assert out[0] == 0

    def test_power_past_float_range_clamps_and_counts(self):
        # powers of 1e30 soon pass float range; the table ends at the first
        # one past the register, and a lookup at or past it makes the gain it
        # scales saturate, counted
        comp = compile_neuron(leakless_params(model="iow-burst-lif", beta=1e30), 1)
        assert comp.beta_pow_fp.tolist() == [SCALE, RAW_MAX + 1]
        sat = np.zeros(1, dtype=np.int64)
        g = burst_gain_update(np.full(3, SCALE), np.array([1, 7, 0]), comp, sat)
        assert g.tolist() == [RAW_MAX, RAW_MAX, SCALE]
        assert sat.tolist() == [2]

    def test_huge_n_max_compiles_a_short_table(self):
        # a table of every power up to n_max would hold 10**9 + 1 entries
        comp = compile_neuron(leakless_params(n_max=10**9, model="iow-burst-lif"), 1)
        lut = comp.beta_pow_fp
        assert len(lut) <= 27
        assert lut[-1] == RAW_MAX + 1 and lut[-2] <= RAW_MAX
        sat = np.zeros(1, dtype=np.int64)
        assert burst_gain_update(np.full(1, SCALE), np.array([10**9]), comp, sat).tolist() == [RAW_MAX]
        assert sat.tolist() == [1]

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.one_of(st.floats(1e-3, 1e3), st.floats(0.99, 1.01), st.just(1.0)),
        n_max=st.integers(1, 300),
        gamma=st.integers(1, 16),
    )
    def test_truncated_beta_table_looks_up_as_the_full_one(self, beta, n_max, gamma):
        comp = compile_neuron(leakless_params(n_max, model="iow-burst-lif", beta=beta), gamma)
        with np.errstate(over="ignore"):
            powers = np.array([np.float64(beta) ** k for k in range(max(n_max, gamma) + 1)])
            full = np.minimum(np.rint(powers * SCALE), RAW_MAX + 1).astype(np.int64)
        lut = comp.beta_pow_fp
        assert [lut[min(w, len(lut) - 1)] for w in range(len(full))] == full.tolist()

    def test_burst_requires_zeroth_order(self):
        with pytest.raises(ValueError, match="bursting models require a zeroth-order synapse"):
            LIFParams(model="iow-burst-lif")

    def test_burst_takes_the_default_beta(self):
        comp = compile_neuron(leakless_params(model="burst-lif"), 1)
        assert comp.beta_pow_fp[:2].tolist() == [SCALE, round(1.5 * SCALE)]


class TestFixedVsRealReference:
    def test_membrane_tracks_float_model(self):
        # same update rule mirrored in float64; default format stays within
        # 1% of full scale and spike counts within 2% over 1000 steps
        params = LIFParams(tau_m_nom=8.0, u_th=1.0, R=2.0,
                           synapse=SynapseParams(order="first", tau_s1_nom=4.0, q=1.0))
        comp = compile_neuron(params, 1)
        state = new_neuron_state(1)
        k_m = comp.tau_m_plan.shifts(1000)
        k_s = comp.tau_s1_plan.shifts(1000)
        rng = np.random.default_rng(5)
        inputs = (rng.random(1000) < 0.3).astype(np.int64)

        s_ref = u_ref = 0.0
        gain = params.R / comp.tau_m_plan.tau_nom_c_exact
        count_fp = count_ref = 0
        full_scale = float(RAW_MAX)
        max_dev = 0.0
        for t in range(1000):
            drive = np.array([int(inputs[t]) << 16])
            i_fp = synapse_step(state, drive, comp, k_s1=int(k_s[t]))
            out = integrate_fire(state, i_fp, comp, k_m=int(k_m[t]))
            count_fp += int(out[0])

            s_ref = s_ref * (1.0 - 2.0 ** (-float(k_s[t]))) + 1.0 * inputs[t]
            u_ref = u_ref * (1.0 - 2.0 ** (-float(k_m[t]))) + gain * s_ref
            k = min(int(u_ref), params.n_max) if u_ref >= 1.0 else 0
            u_ref -= k * 1.0
            count_ref += k
            max_dev = max(max_dev, abs(state.u[0] - u_ref * 65536.0))

        assert max_dev / full_scale < 0.01
        assert count_ref > 50
        assert abs(count_fp - count_ref) / count_ref <= 0.02


def test_saturation_is_counted_not_silent():
    # a full-scale drive every step outruns seven thresholds of 100.0 a step
    params = LIFParams(tau_m_nom=math.inf, u_th=100.0, R=1.0, synapse=ZEROTH)
    comp = compile_neuron(params, 1)
    state = new_neuron_state(1)
    sat = np.zeros(1, dtype=np.int64)
    for _ in range(10):
        integrate_fire(state, np.array([RAW_MAX]), comp, sat=sat)
    assert sat[0] > 0
    assert state.u[0] <= RAW_MAX


@pytest.mark.parametrize("model, order", [(m, o) for m, spec in MODELS.items()
                                          for o in ("zeroth",) + (() if spec.bursting else ("first", "second"))])
def test_steps_advance_their_state_in_place_and_leave_their_inputs_alone(model, order):
    # a zeroth-order synapse hands back the caller's drive itself, so a write
    # into the current would be a write into the caller's array
    bursting = MODELS[model].bursting
    comp = compile_neuron(LIFParams(model=model, synapse=SynapseParams(order=order)), 4)
    state = new_neuron_state((2, 3), bursting)
    arrays = {"u": state.u, "s1": state.s1, "s2": state.s2}
    drive = np.array([[3 << 16, -(2 << 16), 0], [9 << 16, 1 << 16, 1 << 15]])
    given = drive.copy()
    for _ in range(3):
        current = synapse_step(state, drive, comp, 1, 2)
        assert (current is drive) == (order == "zeroth")
        held = current.copy()
        integrate_fire(state, current, comp, 2)
        assert np.array_equal(drive, given) and np.array_equal(current, held)
    assert state.u.any()
    for name, array in arrays.items():  # nothing clamped, so every state array is the one it started with
        assert getattr(state, name) is array, name


def test_equal_params_compile_to_one_read_only_neuron():
    lif = LIFParams(model="iow-burst-lif", synapse=ZEROTH)
    comp = compile_neuron(lif, 4)
    assert compile_neuron(replace(lif), 4) is comp  # an equal, distinct object
    assert compile_neuron(lif, 8) is not comp
    assert not comp.beta_pow_fp.flags.writeable
    second = compile_neuron(LIFParams(), 4)
    for plan in (second.tau_m_plan, second.tau_s1_plan, second.tau_s2_plan):
        assert not plan.shifts(10).flags.writeable


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        LIFParams(tau_m_nom=1.0)
    with pytest.raises(ValueError):
        LIFParams(u_th=0.0)
    with pytest.raises(ValueError):
        SynapseParams(order="second", tau_s1_nom=4.0, tau_s2_nom=4.0)
    with pytest.raises(ValueError):
        SynapseParams(order="third")
    with pytest.raises(ValueError):
        LIFParams(beta=0.0)
    with pytest.raises(ValueError):
        LIFParams(model="izhikevich")
