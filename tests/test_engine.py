"""The engine's two passes: reservoir, then readout.

A batched reservoir pass must equal one pass per example, a batched readout
run one run per pass, and a trace assembled from given passes must equal a
run that simulates its own, in events, potentials and every counter. Every
model runs with every synapse order it allows at every ratio; hypothesis
draws the batches (sizes, rates and lengths) and the mode: a baseline run is
a run at gamma 1.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_golden import CHANNELS, GOLDEN, ORDERS, STEPS, _example, _network
from traces import poisson_encode, same_trace

from tcsnn.fixedpoint import RAW_MAX
from tcsnn.learning import LearningParams, _ReadoutLearner
from tcsnn.network import _Projection, run_readout, run_reservoir, simulate

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
    for example, together in zip(examples, batch):
        (alone,) = run_reservoir(net, [example], gamma, record_potentials=True)
        assert_same_pass(together, alone)
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


@pytest.mark.parametrize("case, loud", READOUT_CASES)
def test_learn_mode_at_rate_zero_equals_frozen_run(case, loud):
    # a learner's readout takes its drive one step at a time, a frozen one
    # all at once; at eta = 0 the weights never move, so both must agree
    model, order, gamma = case
    net = _network(model, order)
    bound = make_loud(net) if loud else 4.0
    example = _example()
    (res,) = run_reservoir(net, [example], gamma, record_potentials=True)
    frozen = simulate(net, example, gamma, record_potentials=True, reservoir=res)
    weights = net.w_out.copy()
    learner = _ReadoutLearner(net, LearningParams(eta=0.0, w_min=-bound, w_max=bound), gamma, frozen.timestep_count)
    learned = simulate(net, example, gamma, record_potentials=True, reservoir=res,
                       readout=learner.run(res, label=0, record_potentials=True))
    assert np.array_equal(net.w_out, weights)
    assert_same_trace(learned, frozen)
    if loud and res.spikes[:-1].any():  # both forms clamped, and counted the same clamps
        assert frozen.counters.saturations > res.saturations


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
    assert trace.counters.saturations == GOLDEN[case + ("compressed",)][1] == 98


def test_batch_of_unequal_lengths_is_rejected():
    net = _network("iow-lif", "second")
    assert run_reservoir(net, [], 4) == []
    with pytest.raises(ValueError, match="equally long: 10 and 9 steps"):
        run_reservoir(net, [encode(0.1, 1, 40), encode(0.1, 2, 36)], 4)
    assert len(run_reservoir(net, [encode(0.1, 1, 40), encode(0.1, 2, 37)], 4)) == 2


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
