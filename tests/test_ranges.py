"""The range analysis behind the skipped fixed-point checks is sound.

``site_ranges`` claims an interval for the values reaching every clamp site
of a non-bursting neuron, given a bound on its drive, and ``prove_ranges``
lets each site whose interval fits the register skip its check. From any
state inside the intervals and any drive within the bound, one synapse step
and one integrate-fire step must keep every site inside its interval, and a
site that skips its check must have nothing to clamp.

A learning readout steps its units on Python ints in a kernel of its own:
from any state, one unit stepped there must equal its column of an array
step, proven or fully checked, in every model and synapse order.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import ORDERS, _example, _network
from traces import replayed_amplitudes, reservoir_projections

import tcsnn.learning as learning
import tcsnn.network as network
import tcsnn.neuron as neuron
from tcsnn.fixedpoint import RAW_MAX, RAW_MIN, saturate
from tcsnn.learning import LearningParams, _ReadoutLearner
from tcsnn.network import ReservoirPass, _learning_readout, _plan_shifts, _Projection, run_readout, run_reservoir
from tcsnn.neuron import (
    MODELS,
    NO_PROOF,
    LIFParams,
    NeuronState,
    SynapseParams,
    compile_neuron,
    integrate_fire,
    new_neuron_state,
    prove_ranges,
    site_ranges,
    synapse_step,
)

NON_BURSTING = sorted(m for m, spec in MODELS.items() if not spec.bursting)
# the sites a step meets, in the order it meets them
SITES = {"zeroth": ("gain", "u"), "first": ("syn", "s1", "gain", "u"), "second": ("s1", "s2", "syn", "gain", "u")}

drive_bounds = st.one_of(
    st.integers(0, 1 << 24),  # small
    st.integers(1 << 28, 1 << 33),  # near the register
    st.integers(1 << 33, 1 << 45),  # past it
)


def _held(iv):
    """A site's values after its clamp."""
    if iv is None:
        return RAW_MIN, RAW_MAX
    return tuple(min(max(v, RAW_MIN), RAW_MAX) for v in iv)


def _values(data, iv, n):
    lo, hi = iv
    return np.array(data.draw(st.lists(st.one_of(st.sampled_from((lo, hi, 0)), st.integers(lo, hi)),
                                       min_size=n, max_size=n)), dtype=np.int64)


def _shift(data, plan):
    return 0 if plan is None else data.draw(st.sampled_from((plan.k_low, plan.k_high)))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    model=st.sampled_from(NON_BURSTING),
    order=st.sampled_from(tuple(SITES)),
    gamma=st.sampled_from((1, 2, 4, 8, 16)),
    leakless=st.booleans(),
    r=st.sampled_from((1.0, 2.5, -0.5)),
    q=st.sampled_from((1.0, 3.0, -1.0)),
    drive_bound=drive_bounds,
)
def test_one_step_keeps_every_site_inside_its_interval(data, model, order, gamma, leakless, r, q, drive_bound):
    lif = LIFParams(model=model, tau_m_nom=math.inf if leakless else 32.0, R=r, synapse=SynapseParams(order=order, q=q))
    comp = compile_neuron(lif, gamma)
    ranges = site_ranges(comp, drive_bound)
    fits = prove_ranges(comp, drive_bound)
    assert set(ranges) == {"drive", *SITES[order]}

    n = 6
    state = new_neuron_state(n)
    for name in ("s1", "s2"):
        if name in ranges:
            setattr(state, name, _values(data, _held(ranges[name]), n))
    state.u = _values(data, _held(ranges["u"]), n)
    drive = saturate(_values(data, (-drive_bound, drive_bound), n), np.zeros(1, dtype=np.int64), fits.drive)

    seen = []  # (site values, clamps a full check counts, whether the site skipped its check)

    def spy(raw, counter=None, fits=False):
        full = np.zeros(1, dtype=np.int64)
        saturate(raw.copy(), full)
        seen.append((raw.copy(), full[0], fits))
        return saturate(raw, counter, fits)

    sat = np.zeros(1, dtype=np.int64)
    with mock.patch.object(neuron, "saturate", spy):
        current = neuron.synapse_step(state, drive, comp, _shift(data, comp.tau_s1_plan),
                                      _shift(data, comp.tau_s2_plan), sat, fits)
        neuron.integrate_fire(state, current, comp, _shift(data, comp.tau_m_plan), sat, fits)

    assert len(seen) == len(SITES[order])
    for site, (values, clamps, skipped) in zip(SITES[order], seen):
        assert skipped == getattr(fits, site)
        iv = ranges[site]
        if iv is not None:
            assert iv[0] <= values.min() and values.max() <= iv[1], site
        if skipped:
            assert clamps == 0, site


def test_bursting_proves_nothing():
    comp = compile_neuron(_network("iow-burst-lif", "zeroth").config.lif, 4)
    assert prove_ranges(comp, 0) == NO_PROOF


def test_a_small_network_proves_every_neuron_site():
    # the 27-neuron networks of the golden table: every site of the
    # reservoir and the frozen readout fits at every ratio. The reservoir's
    # bound is its run's, of one projection of the stacked [w_in | w_res];
    # it is at most the sum of the two layers' own bounds
    for order in SITES:
        net = _network("iow-lif", order)
        for gamma in (1, 4, 16):
            comp = compile_neuron(net.config.lif, gamma)
            (stacked,) = reservoir_projections(net, _example(), gamma)
            drive_in = _Projection(net.w_in, gamma << 16, 16).bound
            drive_res = _Projection(net.w_res, comp.n_max << 16, 16).bound
            assert stacked.bound <= drive_in + drive_res
            for bound in (stacked.bound, _Projection(net.w_out, comp.n_max, 0).bound):
                fits = prove_ranges(comp, bound)
                assert all(getattr(fits, site) for site in ("drive", *SITES[order])), (order, gamma, fits)


def _runs(net, gamma):
    """Reservoir pass, frozen readout and a learning run of the golden example, as arrays."""
    (res,) = run_reservoir(net, [_example()], gamma, record_potentials=True)
    (frozen,) = run_readout(net, [res], gamma, record_potentials=True)
    weights = net.w_out.copy()
    learner = _ReadoutLearner(net, LearningParams(eta=1000.0, w_min=-2.0**14, w_max=2.0**14), gamma, res.spikes.shape[0])
    learned = learner.run(res, label=1, record_potentials=True)
    trained, net.w_out[:] = net.w_out.copy(), weights
    return [res.spikes, res.potentials, res.saturations, frozen.outs, frozen.potentials, frozen.saturations,
            learned.outs, learned.potentials, learned.saturations, trained]


@pytest.mark.parametrize("order", SITES)
@pytest.mark.parametrize("loud", [False, True])
def test_proofs_change_no_output(order, loud):
    # the same runs with every site checked: outputs, potentials, learned
    # weights and saturation counts agree; loud readout weights (+/- 2**14)
    # make the readout's drive and synaptic sites clamp while others stay proven
    net = _network("iow-lif", order)
    if loud:
        net.w_out[:] = np.sign(net.w_out) << 30
    for gamma in (1, 4, 16):
        proven = _runs(net, gamma)
        with mock.patch.object(network, "prove_ranges", lambda comp, bound: NO_PROOF), \
                mock.patch.object(learning, "prove_ranges", lambda comp, bound: NO_PROOF):
            checked = _runs(net, gamma)
        for a, b in zip(proven, checked):
            assert np.array_equal(a, b)
        if loud and gamma == 1:
            assert proven[5] > 0 and proven[8] > 0  # the readouts clamped


INT_CASES = [(model, order, gamma) for model, orders in ORDERS.items() for order in orders
             for gamma in (1, 2, 4, 8, 16)]


@pytest.mark.parametrize("model, order, gamma", INT_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data(), proven=st.booleans(), leakless=st.booleans(), drive_bound=drive_bounds,
       steps=st.integers(2, 9))
def test_a_unit_on_ints_steps_as_its_array_column(model, order, gamma, data, proven, leakless, drive_bound, steps):
    lif = LIFParams(model=model, tau_m_nom=math.inf if leakless else 32.0, synapse=SynapseParams(order=order))
    bursting = MODELS[model].bursting
    comp = compile_neuron(lif, gamma)
    fits = prove_ranges(comp, drive_bound) if proven else NO_PROOF
    ranges = site_ranges(comp, drive_bound) if proven else {}

    n = 5
    # a (1, n) state inside the proven intervals, or anywhere in the register
    state = new_neuron_state((1, n), bursting)
    for name in ("s1", "s2", "u"):
        setattr(state, name, _values(data, _held(ranges.get(name)), n)[None])
    if bursting:
        state.g = _values(data, (0, RAW_MAX), n)[None]
        state.prev_out = _values(data, (0, comp.n_max), n)[None]
    drive = _values(data, (-drive_bound, drive_bound), n)[None]
    fields = [f.name for f in dataclasses.fields(NeuronState)]
    units = NeuronState(*(None if getattr(state, f) is None else getattr(state, f).copy() for f in fields))

    # on ints: one reservoir neuron fires a weight-1 spike at the second-last
    # step, so the readout's weights reach it as the drive of the last step,
    # each unit's own, after steps of no drive that run the decays
    net = _network(model, order)
    net = dataclasses.replace(net, config=dataclasses.replace(net.config, num_readout=n), w_out=drive.T.copy())
    spikes = np.zeros((steps, 1), dtype=np.uint8)
    spikes[-2] = 1
    res = ReservoirPass(gamma=gamma, inputs=np.zeros((steps, 1), dtype=np.uint8), spikes=spikes,
                        input_ops=0, reservoir_ops=0, saturations=0,
                        amplitudes=replayed_amplitudes(spikes, comp) if bursting else None)
    # with a hook that moves no weight, whatever the teacher's tallies
    on_ints = _learning_readout(net, res, comp, fits, 0, 0, lambda *_: None, record_potentials=True, state=units)

    # on arrays: the same steps through the step functions
    on_arrays = np.zeros(1, dtype=np.int64)
    k_m, k_s1, k_s2 = _plan_shifts(comp, steps)
    outs, potentials = [], []
    for t in range(steps):
        d = drive if t == steps - 1 else np.zeros_like(drive)
        current = synapse_step(state, saturate(d, on_arrays, fits.drive), comp, k_s1[t], k_s2[t], on_arrays, fits)
        outs.append(integrate_fire(state, current, comp, k_m[t], on_arrays, fits)[0].tolist())
        potentials.append(state.u[0].tolist())

    assert on_ints.outs.tolist() == outs
    assert on_ints.potentials.tolist() == potentials
    for f in fields:
        column, unit = getattr(state, f), getattr(units, f)
        assert (unit is None) if column is None else np.array_equal(unit, column), f
    assert on_ints.saturations == on_arrays[0]
