"""The engine's two passes: reservoir, then readout.

A batched reservoir pass must equal one pass per example, a batched readout
run one run per pass, and a trace assembled from given passes must equal a
run that simulates its own, in events, potentials and every counter. A
learner's readout, a Python-int kernel of its own, must equal the frozen
array readout when its weights do not move. A bursting pass records each
spike's amplitude, which must equal the burst gains replayed from its
spikes, and no readout replays them. Every model runs with every
synapse order it allows at every ratio; hypothesis draws the batches (sizes,
rates and lengths) and the mode: a baseline run is a run at gamma 1.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_golden import CHANNELS, GOLDEN, ORDERS, STEPS, _example, _network
from traces import poisson_encode, replayed_amplitudes, same_trace

import tcsnn.network as network
import tcsnn.neuron as neuron
from tcsnn.fixedpoint import RAW_MAX
from tcsnn.learning import LearningParams, _ReadoutLearner
from tcsnn.network import ReservoirPass, _compile, _Projection, run_readout, run_reservoir, simulate
from tcsnn.neuron import NO_PROOF, BurstParams

GAMMAS = (1, 2, 4, 8, 16)
CASES = [(model, order, gamma) for model, orders in ORDERS.items() for order in orders for gamma in GAMMAS]

# one example: (peak channel rate, seed)
EXAMPLE = st.tuples(st.sampled_from((0.0, 0.1, 0.4)), st.integers(0, 2**16))


def encode(peak, seed, length):
    rates = np.random.default_rng(seed).uniform(0.0, peak, CHANNELS)
    return poisson_encode(rates, length, seed=seed)


def assert_same_pass(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert x is not None and y is not None, f.name
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def assert_same_trace(a, b):
    assert a.counters == b.counters
    assert a.potentials.keys() == b.potentials.keys()
    assert same_trace(a, b)  # events, and potentials when both recorded them
    assert np.array_equal(a.readout.outs.sum(axis=0), b.readout.outs.sum(axis=0))


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
@given(
    specs=st.lists(EXAMPLE, min_size=1, max_size=3),
    length=st.sampled_from((24, 37)),
    mode=st.sampled_from(("compressed", "baseline")),
)
def test_batched_reservoir_equals_serial_and_readout_equals_full_run(case, specs, length, mode):
    model, order, gamma = case
    net = _network(model, order)
    gamma = 1 if mode == "baseline" else gamma
    examples = [encode(peak, seed, length) for peak, seed in specs]
    batch = run_reservoir(net, examples, gamma, record_potentials=True)
    assert len(batch) == len(examples)
    comp = _compile(net.config, gamma)
    for example, together in zip(examples, batch):
        (alone,) = run_reservoir(net, [example], gamma, record_potentials=True)
        assert_same_pass(together, alone)
        for p in (together, alone):  # the amplitudes delivered are the burst gains replayed from the spikes
            if comp.spec.bursting:
                assert np.array_equal(p.amplitudes, replayed_amplitudes(p.spikes, comp))
            else:
                assert p.amplitudes is None
    example, first = examples[0], batch[0]
    replayed = simulate(net, example, gamma, record_potentials=True, reservoir=first)
    assert_same_trace(replayed, simulate(net, example, gamma, record_potentials=True))


# every case, and every non-bursting case again with readout drives far past
# the register (a bursting product would pass int64 first)
READOUT_CASES = [pytest.param(c, False, id="-".join(map(str, c))) for c in CASES] + [
    pytest.param(c, True, id="-".join(map(str, c)) + "-clamping") for c in CASES if "burst" not in c[0]
]


def make_loud(net):
    """Set every readout weight to +/- 2**14 so that drives clamp; return that bound."""
    net.w_out[:] = np.sign(net.w_out) << 30
    return 2.0**14


@pytest.mark.parametrize("case, loud", READOUT_CASES)
@given(specs=st.lists(EXAMPLE, min_size=0, max_size=2), length=st.sampled_from((24, 37)))
def test_batched_readout_equals_serial_and_given_passes_equal_full_run(case, loud, specs, length):
    model, order, gamma = case
    net = _network(model, order)
    if loud:
        make_loud(net)
    # drawn examples, then a fixed busy one and a silent one
    examples = [encode(peak, seed, length) for peak, seed in specs] + [encode(0.4, 1, length), encode(0.0, 0, length)]
    passes = run_reservoir(net, examples, gamma, record_potentials=True)
    batch = run_readout(net, passes, gamma, record_potentials=True)
    assert len(batch) == len(passes)
    for example, res, together in zip(examples, passes, batch):
        (alone,) = run_readout(net, [res], gamma, record_potentials=True)
        assert_same_pass(together, alone)
        given_passes = simulate(net, example, gamma, record_potentials=True, reservoir=res, readout=together)
        assert_same_trace(given_passes, simulate(net, example, gamma, record_potentials=True))
    busy, silent = batch[-2:]
    assert silent.saturations == 0 and not silent.outs.any()
    drive = passes[-2].spikes[:-1].astype(np.int64) @ net.w_out.T
    if np.abs(drive).max(initial=0) > RAW_MAX:  # the busy example's clamps stay its own
        assert busy.saturations > 0


# one synthetic reservoir pass: (spike density, seed)
SYNTHETIC = st.tuples(st.sampled_from((0.05, 0.3, 1.0)), st.integers(0, 2**16))
# neuron constants (tau_m_nom, R, u_th, q, beta): a leakless membrane, gains
# and a threshold past 1 that let the gain, synaptic and threshold products
# clamp as well as the states, and a burst beta below 1 that shrinks a firing
# unit's threshold to its floor
CONSTANTS = st.tuples(st.sampled_from((32.0, math.inf)), st.sampled_from((1.0, 2.5)), st.sampled_from((1.0, 4.0)),
                      st.sampled_from((1.0, 3.0)), st.sampled_from((1.5, 0.25)))


def synthetic_pass(net, gamma, length, density, seed):
    """A reservoir pass of ``length`` raw steps whose spike weights reach the compiled n_max.

    A bursting pass takes its amplitudes from the reference replay of its spikes.
    """
    comp = _compile(net.config, gamma)
    n_max = comp.n_max
    steps, n_res = -(-length // gamma), net.config.reservoir_size
    rng = np.random.default_rng(seed)
    spikes = np.where(rng.random((steps, n_res)) < density, rng.integers(1, n_max + 1, (steps, n_res)), 0)
    spikes[0, rng.integers(n_res)] = n_max  # delivered at step 1
    spikes = spikes.astype(np.min_scalar_type(n_max))
    return ReservoirPass(gamma=gamma, inputs=np.zeros((steps, CHANNELS), dtype=np.uint8), spikes=spikes,
                         input_ops=0, reservoir_ops=0, saturations=0,
                         amplitudes=replayed_amplitudes(spikes, comp) if comp.spec.bursting else None)


def with_constants(net, tau_m_nom, R, u_th, q, beta):
    """``net``, sharing its weights, with other neuron constants."""
    cfg = net.config
    synapse = dataclasses.replace(cfg.lif.synapse, q=q)
    lif = dataclasses.replace(cfg.lif, tau_m_nom=tau_m_nom, R=R, u_th=u_th, synapse=synapse)
    return dataclasses.replace(net, config=dataclasses.replace(cfg, lif=lif, burst=cfg.burst and BurstParams(beta)))


@pytest.mark.parametrize("case, loud", READOUT_CASES)
@given(
    drawn=st.one_of(EXAMPLE.map(lambda spec: ("example", spec)), SYNTHETIC.map(lambda spec: ("synthetic", spec))),
    length=st.sampled_from((24, 37)),
    proven=st.booleans(),
    constants=CONSTANTS,
)
def test_learn_mode_at_rate_zero_equals_frozen_run(case, loud, drawn, length, proven, constants):
    # a learner's readout steps on Python ints in a kernel of its own, taking
    # its drive one step at a time; a frozen one steps on arrays, taking it
    # all at once. At eta = 0 the weights never move, so both must give the
    # same outputs, potentials and clamp counts, whether the kernel skips its
    # proven sites or checks every one
    model, order, gamma = case
    base = _network(model, order)
    net = with_constants(base, *constants)
    at_defaults = net.config == base.config
    bound = make_loud(net) if loud else 4.0
    kind, spec = drawn
    if kind == "example":
        (res,) = run_reservoir(net, [encode(*spec, length)], gamma)
    else:
        res = synthetic_pass(net, gamma, length, *spec)
    (golden,) = run_reservoir(net, [_example()], gamma)
    weights = net.w_out.copy()
    for p in (golden, res):
        learner = _ReadoutLearner(net, LearningParams(eta=0.0, w_min=-bound, w_max=bound), gamma, p.spikes.shape[0])
        if not proven:
            learner.fits = NO_PROOF
        learned = learner.run(p, label=0, record_potentials=True)
        (frozen,) = run_readout(net, [p], gamma, record_potentials=True)
        assert_same_pass(learned, frozen)
        if loud and at_defaults and p is golden and p.spikes[:-1].any():  # both forms clamped the same clamps
            assert frozen.saturations > 0
    assert np.array_equal(net.w_out, weights)


@pytest.mark.parametrize("model", [m for m in ORDERS if "burst" in m])
def test_bursting_readouts_step_only_their_own_burst_gains(model):
    # a readout takes the amplitudes its pass recorded: a learner steps no
    # burst gain through the array function, and a frozen batch steps its
    # own units' gains once a step, and no reservoir neuron's
    net = _network(model, "zeroth")
    passes = run_reservoir(net, [_example(), encode(0.4, 1, STEPS)], 4)
    steps = passes[0].spikes.shape[0]
    real, calls = neuron.burst_gain_update, []

    def spy(g, prev_out, comp, sat=None):
        calls.append(g.shape)
        return real(g, prev_out, comp, sat)

    with mock.patch.object(neuron, "burst_gain_update", spy), mock.patch.object(network, "burst_gain_update", spy):
        learner = _ReadoutLearner(net, LearningParams(), 4, steps)
        for p in passes:
            learner.run(p, label=0)
        assert calls == []
        run_readout(net, passes, 4)
    assert calls == [(len(passes), net.config.num_readout)] * steps


def test_saturation_counts_stay_with_their_example():
    # the golden case whose input burst gains clamp: 98 saturations alone
    case = ("iow-burst-lif", "zeroth", 16)
    net = _network("iow-burst-lif", "zeroth")
    loud, quiet = _example(), encode(0.0, 0, STEPS)
    batch = run_reservoir(net, [loud, quiet, loud], 16)
    assert batch[1].saturations == 0
    assert batch[0].saturations == batch[2].saturations > 0
    for example, together in zip((loud, quiet), batch):
        (alone,) = run_reservoir(net, [example], 16)
        assert_same_pass(together, alone)
    trace = simulate(net, loud, 16, reservoir=batch[2])
    assert trace.counters["saturations"] == GOLDEN[case + ("compressed",)][1] == 98


def test_batch_of_unequal_lengths_is_rejected():
    net = _network("iow-lif", "second")
    assert run_reservoir(net, [], 4) == []
    with pytest.raises(ValueError, match="equally long: 10 and 9 steps"):
        run_reservoir(net, [encode(0.1, 1, 40), encode(0.1, 2, 36)], 4)
    assert len(run_reservoir(net, [encode(0.1, 1, 40), encode(0.1, 2, 37)], 4)) == 2


@pytest.mark.parametrize("model", ["iow-lif", "iow-burst-lif"])
def test_examples_of_no_steps_give_empty_runs(model):
    net = _network(model, ORDERS[model][0])
    passes = run_reservoir(net, [np.zeros((CHANNELS, 0), dtype=bool)] * 2, 4)
    for p in passes:
        assert p.spikes.shape == (0, net.config.reservoir_size)
        assert p.amplitudes is None if model == "iow-lif" else p.amplitudes.shape == (0,)
    learned = _ReadoutLearner(net, LearningParams(), 4, steps=0).run(passes[0], label=0)
    for run in (*run_readout(net, passes, 4), learned):
        assert run.outs.shape == (0, net.config.num_readout) and run.saturations == 0


def test_pass_from_another_ratio_or_mode_is_rejected():
    net = _network("iow-lif", "second")
    example = _example()
    (at_4,) = run_reservoir(net, [example], 4)
    with pytest.raises(ValueError, match="at gamma 4, not 8"):
        simulate(net, example, gamma=8, reservoir=at_4)
    with pytest.raises(ValueError, match="at gamma 4, not 1"):
        simulate(net, example, 1, reservoir=at_4)
    (base,) = run_reservoir(net, [example], 1)
    with pytest.raises(ValueError, match="at gamma 1, not 4"):
        simulate(net, example, 4, reservoir=base)
    with pytest.raises(ValueError, match="no potentials"):
        simulate(net, example, 4, record_potentials=True, reservoir=at_4)


def test_readout_pass_that_does_not_fit_is_rejected():
    net = _network("iow-lif", "second")
    example, short = _example(), encode(0.1, 1, STEPS - 8)  # 30 and 28 steps at gamma 4
    (at_4,) = run_reservoir(net, [example], 4)
    (at_8,) = run_reservoir(net, [example], 8)
    (short_4,) = run_reservoir(net, [short], 4)
    (with_potentials,) = run_reservoir(net, [example], 4, record_potentials=True)
    (run_4,) = run_readout(net, [at_4], 4)
    with pytest.raises(ValueError, match="readout pass ran at gamma 4, not 8"):
        simulate(net, example, 8, reservoir=at_8, readout=run_4)
    with pytest.raises(ValueError, match="readout pass ran 28 steps, its reservoir pass 30"):
        simulate(net, example, 4, reservoir=at_4, readout=run_readout(net, [short_4], 4)[0])
    with pytest.raises(ValueError, match="readout pass has no potentials"):
        simulate(net, example, 4, record_potentials=True, reservoir=with_potentials, readout=run_4)
    learner = _ReadoutLearner(net, LearningParams(), 4, steps=at_4.spikes.shape[0])
    with pytest.raises(ValueError, match="reservoir pass ran at gamma 8, not 4"):
        learner.run(at_8, label=0)
    with pytest.raises(ValueError, match="reservoir pass ran at gamma 8, not 4"):
        run_readout(net, [at_4, at_8], 4)
    with pytest.raises(ValueError, match=r"equally long, got \[28, 30\] steps"):
        run_readout(net, [at_4, short_4], 4)
    assert run_readout(net, [], 4) == []


def test_delivery_stays_exact_past_float_precision():
    # float64 rounds 2**53 + 1 to 2**53: sums that can grow this large (burst
    # gains near the register limit) must take the integer product
    w = np.array([[1, 1], [1, 0]])  # (post, pre)
    amp = np.array([[1 << 53, 1], [3, 0]])  # (batch, pre)
    exact = [[(1 << 53) + 1, 1 << 53], [3, 3]]
    assert _Projection(w, amp_max=1 << 54, frac=0)(amp).tolist() == exact
    assert _Projection(w << 4, amp_max=1 << 54, frac=4)(amp).tolist() == exact
    assert _Projection(w, amp_max=7, frac=0)(np.array([[7, 1], [0, 0]])).tolist() == [[8, 7], [0, 0]]


def test_passes_compare_and_hash_by_identity():
    # passes hold numpy arrays, so a generated field-wise == or hash() would
    # raise; like traces, two passes are equal only when they are one object
    net = _network("iow-lif", "second")
    example = _example()
    first, again = run_reservoir(net, [example, example], 4)
    assert np.array_equal(first.spikes, again.spikes)
    assert first == first and first != again
    assert len({first, again, first}) == 2
    run, rerun = run_readout(net, [first, again], 4)
    assert run == run and run != rerun
    assert len({run, rerun}) == 2
