import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from learner_reference import reference_training
from test_golden import CHANNELS, ORDERS, _network
from traces import to_fixed

import tcsnn.learning
import tcsnn.neuron
from tcsnn.learning import (TRACE_STRIDE, LearningParams, _ReadoutLearner, evaluate, split_dataset, trace_plan,
                            train_readout)
from tcsnn.network import LsmConfig, ReservoirPass, _learning_readout, build_lsm, run_reservoir
from tcsnn.neuron import compile_neuron, integrate_fire, new_neuron_state
from tcsnn.spike import synthetic_task


def small_task():
    dataset = synthetic_task(num_classes=2, num_channels=8, length_steps=30, jitter_steps=2,
                             examples_per_class=3, seed=1)
    cfg = LsmConfig(num_inputs=8, reservoir_size=27, num_readout=2, reservoir_grid=(3, 3, 3))
    return build_lsm(cfg), dataset


def test_empty_test_split_is_an_error():
    net, dataset = small_task()
    with pytest.raises(ValueError, match="test split is empty"):
        train_readout(net, dataset, (range(len(dataset)), []), LearningParams(epochs=1), gamma=2)


def test_empty_training_split_is_an_error_only_with_epochs():
    net, dataset = small_task()
    with pytest.raises(ValueError, match="training split is empty"):
        train_readout(net, dataset, ([], range(len(dataset))), LearningParams(epochs=1), gamma=2)
    report = train_readout(net, dataset, ([], range(len(dataset))), LearningParams(epochs=0), gamma=2)
    assert report.epoch_train_accuracy == []


# a rate or bound past the register is refused where it is made, not clamped
# to about +/-32768 by the learner that reads it
@pytest.mark.parametrize("name, value", [("eta", 1e6), ("w_min", -1e6), ("w_max", 1e6)])
def test_a_learning_constant_past_the_register_is_refused(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} {value:g} does not fit the 32-bit fixed-point format")):
        LearningParams(**{name: value})


def test_evaluate_without_examples_is_an_error():
    net, dataset = small_task()
    with pytest.raises(ValueError):
        evaluate(net, dataset, [], gamma=2, passes=[])


def test_evaluate_needs_one_pass_per_example():
    net, dataset = small_task()
    passes = run_reservoir(net, map(dataset.row, [0, 1]), 2)
    with pytest.raises(ValueError, match="2 reservoir passes for 3 examples"):
        evaluate(net, dataset, [0, 1, 2], gamma=2, passes=passes)


# training owns its reservoir passes: one batch, the training rows (only
# when there are epochs) then the test rows, split by position
@pytest.mark.parametrize("epochs", [2, 0])
def test_training_runs_the_reservoir_once_and_returns_the_test_passes(monkeypatch, epochs):
    net, dataset = small_task()
    train_idx, test_idx = split_dataset(dataset, 0.5, seed=0)
    batches = []

    def recording(network, examples, gamma, *args):
        batches.append(list(examples))
        return run_reservoir(network, batches[-1], gamma, *args)

    monkeypatch.setattr(tcsnn.learning, "run_reservoir", recording)
    report = train_readout(net, dataset, (train_idx, test_idx), LearningParams(eta=0.05, epochs=epochs), gamma=2)
    rows = [*train_idx, *test_idx] if epochs else list(test_idx)
    assert len(batches) == 1 and len(batches[0]) == len(rows)
    assert all(np.array_equal(row, dataset.row(i)) for row, i in zip(batches[0], rows))

    assert len(report.test_passes) == len(report.test_readouts) == len(test_idx)
    for i, res in zip(test_idx, report.test_passes):
        (alone,) = run_reservoir(net, [dataset.row(i)], 2)
        assert np.array_equal(res.inputs, alone.inputs) and np.array_equal(res.spikes, alone.spikes)
        assert (res.input_ops, res.reservoir_ops, res.saturations) == (
            alone.input_ops, alone.reservoir_ops, alone.saturations)

    accuracy, no_spike, runs = evaluate(net, dataset, test_idx, 2, report.test_passes)
    assert (accuracy, no_spike) == (report.test_accuracy, report.no_spike_examples)
    assert all(np.array_equal(a.outs, b.outs) for a, b in zip(runs, report.test_readouts))


def test_a_run_shares_one_compiled_neuron(monkeypatch):
    # the reservoir, the learner and the frozen readout of one training run
    # take the neuron compiled once at its ratio, from the compiler's cache
    net, dataset = small_task()
    seen = []  # (layer width, or "learner", and the compiled neuron it ran on)

    def step(state, i_fp, comp, *args, **kwargs):
        seen.append((i_fp.shape[-1], comp))
        return integrate_fire(state, i_fp, comp, *args, **kwargs)

    def learning(network, res, comp, *args):
        seen.append(("learner", comp))
        return _learning_readout(network, res, comp, *args)

    monkeypatch.setitem(tcsnn.neuron.STEP_FUNCTIONS, net.config.lif.model, step)
    monkeypatch.setattr(tcsnn.learning, "_learning_readout", learning)
    compile_neuron.cache_clear()
    train_readout(net, dataset, split_dataset(dataset, 0.5, seed=0), LearningParams(epochs=1), gamma=2)
    assert {source for source, _ in seen} == {27, 2, "learner"}  # reservoir, frozen readout, learner
    assert len({id(comp) for _, comp in seen}) == 1
    assert seen[0][1] is compile_neuron(net.config.lif, 2)
    info = compile_neuron.cache_info()
    assert info.misses == 1 and info.hits >= 3


def _pass(spikes, gamma=2):
    """A reservoir pass of the given ``(steps, neurons)`` spike weights and no input."""
    spikes = np.asarray(spikes, dtype=np.uint8)
    return ReservoirPass(gamma=gamma, inputs=np.zeros((spikes.shape[0], 8), dtype=np.uint8), spikes=spikes,
                         input_ops=0, reservoir_ops=0, saturations=0)


def test_silent_teacher_is_potentiated_through_the_delivered_spikes():
    # the spikes of step 0 reach the trace at step 1, which holds each
    # delivered spike weight, and a silent teacher row grows by eta times it;
    # the rival row is left alone
    net, _ = small_task()
    params = LearningParams(eta=0.25)
    spikes = np.zeros((2, 27), dtype=np.int64)
    spikes[0, [3, 20]] = [2, 5]
    learner = _ReadoutLearner(net, params, gamma=2, steps=2)
    learner.start(_pass(spikes), label=1)
    delivered = spikes[0]
    learner.on_step(1, True, [])
    assert np.array_equal(learner.trace, delivered << 16)
    assert np.array_equal(net.w_out[1], (to_fixed(params.eta) * (delivered << 16)) >> 16)
    assert not net.w_out[0].any()


def test_a_touched_step_clips_the_whole_matrix():
    # the clip bounds hold for every weight once the rule touches any row:
    # weights starting below w_min are lifted in the rows it did not change too
    net, _ = small_task()
    params = LearningParams(eta=1.0, w_min=0.5)
    spikes = np.zeros((2, 27), dtype=np.int64)
    spikes[0, 3] = 1
    learner = _ReadoutLearner(net, params, gamma=2, steps=2)
    # a step on which the teacher fires, short of the margin, and no rival
    # does is one the readout's loop calls no rule on, so no clip either: untouched
    state = new_neuron_state((1, 2))
    state.u[0, 1] = learner.comp.u_th_fp * 3 // 2
    calls = []

    def on_step(*args):
        calls.append(args)
        learner.on_step(*args)

    learner.start(_pass(spikes[:1]), label=1)
    readout = _learning_readout(net, learner.res, learner.comp, learner.fits, 1, learner.margin, on_step, state=state)
    assert readout.outs.tolist() == [[0, 1]] and learner.margin > 1
    assert calls == [] and not net.w_out.any()
    learner.start(_pass(spikes), label=1)
    learner.on_step(1, True, [])  # a silent teacher at step 1
    w_min = to_fixed(params.w_min)
    assert net.w_out[1, 3] == to_fixed(1.0)  # the one weight the rule moved, from 0 by eta times the trace
    assert (net.w_out[0] == w_min).all()
    assert (np.delete(net.w_out[1], 3) == w_min).all()


def _reference_traces(spikes, shifts):
    """The trace after each step, stepped one step at a time: a shifter decay,
    then the spike weights of the step before, shifted up by 16 bits."""
    trace = np.zeros(spikes.shape[1], dtype=np.int64)
    traces = []
    for t, k in enumerate(shifts):
        delivered = spikes[t - 1] if t else np.zeros_like(trace)
        trace = trace - (trace >> k) + (delivered << 16)
        traces.append(trace)
    return traces


@example(gamma=4, steps=60, seed=5)  # the shift toggles, and 60 is no multiple of the stride
@example(gamma=1, steps=TRACE_STRIDE, seed=0)
@example(gamma=2, steps=1, seed=0)
@given(gamma=st.integers(1, 16), steps=st.integers(1, 3 * TRACE_STRIDE + 5), seed=st.integers(0, 2**16))
def test_the_checkpointed_trace_is_the_stepwise_recurrence(gamma, steps, seed):
    # at gamma 4 the trace's time constant of 16 steps scales to 4.4, which
    # the shifter schedule realizes by toggling between shifts of 2 and 3;
    # the trace is rebuilt at any step, step 0 included, from its stored
    # strides or, for a pass never registered, from the empty trace
    net, _ = small_task()
    params = LearningParams(eta=0.0)
    shifts = trace_plan(params, gamma, compile_neuron(net.config.lif, gamma).n_max).shifts(steps)
    if gamma == 4 and steps > 1:
        assert set(shifts.tolist()) == {2, 3}
    learner = _ReadoutLearner(net, params, gamma=gamma, steps=steps)
    rng = np.random.default_rng(seed)
    passes = [_pass(rng.integers(0, 8, size=(steps, 27)), gamma) for _ in range(3)]
    learner.register(passes[:2])
    for p in passes:
        traces = _reference_traces(p.spikes.astype(np.int64), shifts)
        if p in learner.checkpoints:
            stored = learner.checkpoints[p]
            assert len(stored) == steps // TRACE_STRIDE + 1
            assert not stored[0].any()
            for c in range(1, len(stored)):
                assert np.array_equal(stored[c], traces[c * TRACE_STRIDE - 1])
        for label in (0, 1):  # a second example starts from an empty trace
            learner.start(p, label)
            for t in range(steps):  # each step in turn
                assert np.array_equal(learner.trace_at(t), traces[t])
        for t in rng.permutation(steps)[:8].tolist():  # and each step alone
            learner.start(p, 0)
            assert np.array_equal(learner.trace_at(t), traces[t])


def test_a_rate_whose_step_could_pass_int64_is_rejected():
    # with a trace time constant of 1e5 steps, every reservoir neuron
    # delivering weight 7 for 12,000 steps (steps 1 to 12,000, the shifts
    # toggling between 17 and 16) raises its trace to 5,149,757,291 raw;
    # eta 32767 times that passes int64 (the exact step is +1.69e14), so an
    # int64 step would wrap negative and clip a silent teacher's row to
    # w_min instead of w_max
    net, _ = small_task()
    loud = LearningParams(eta=32767.0, tau_trace_nom=1e5, w_min=-30000.0, w_max=30000.0)
    trace = np.full(27, 5_149_757_291, dtype=np.int64)
    assert to_fixed(loud.eta) * 5_149_757_291 >> 16 == 32767 * 5_149_757_291  # about 1.69e14
    assert (((to_fixed(loud.eta) * trace) >> 16) < 0).all()  # what int64 made of it
    with pytest.raises(ValueError, match="does not fit 64 bits"):
        _ReadoutLearner(net, loud, gamma=1, steps=12_001)

    # a rate whose product stays inside int64 at the worst-case trace, 7 << (16 + 17),
    # is exact there: the teacher's row reaches w_max
    params = LearningParams(eta=2000.0, tau_trace_nom=1e5, w_min=-30000.0, w_max=30000.0)
    assert to_fixed(params.eta) * (7 << (16 + 17)) < 2**63
    learner = _ReadoutLearner(net, params, gamma=1, steps=12_001)
    res = _pass(np.full((12_001, 27), 7), gamma=1)
    learner.register([res])
    learner.start(res, label=1)
    for t in range(12_001):  # a teacher silent at every step
        learner.on_step(t, True, [])
    assert (learner.trace == 5_149_757_291).all()
    assert (net.w_out[1] == to_fixed(params.w_max)).all()
    assert not net.w_out[0].any()


MODEL_ORDERS = [(model, order) for model, orders in ORDERS.items() for order in orders]
# readout weights: (start magnitude in raw units, 0 for none; clip bound)
WEIGHTS = {"quiet": (0, 4.0), "loud": (1 << 30, 2.0**14), "past float": (1 << 50, 2.0**14)}


def _trained(model, order, gamma, weights, eta, epochs, seed, spy=None):
    """Train a small readout both ways; each learning run of ``train_readout`` with
    its weights after it, the report, and the reference's runs and epoch accuracies."""
    dataset = synthetic_task(num_classes=3, num_channels=CHANNELS, length_steps=70, jitter_steps=2,
                             examples_per_class=3, seed=seed)
    start, bound = WEIGHTS[weights]
    params = LearningParams(eta=eta * bound / 4, epochs=epochs, w_min=-bound, w_max=bound)
    split = split_dataset(dataset, 0.7, seed=seed)
    nets = []
    for _ in range(2):
        net = _network(model, order)
        net.w_out[:] = np.sign(net.w_out) * start
        nets.append(net)
    runs = []
    real = _ReadoutLearner.run

    def recording(learner, res, label, record_potentials=False):
        readout = real(learner, res, label, record_potentials)
        runs.append((readout, learner.w.copy()))
        return readout

    with mock.patch.object(_ReadoutLearner, "run", recording):
        report = train_readout(nets[0], dataset, split, params, gamma)
    return runs, report, reference_training(nets[1], dataset, split[0], params, gamma)


@pytest.mark.parametrize("model, order", MODEL_ORDERS, ids=lambda v: v)
@example(gamma=1, weights="quiet", eta=0.05, epochs=2, seed=1)  # 70 steps: two strides and a part
@example(gamma=4, weights="quiet", eta=1.0, epochs=3, seed=2)
@example(gamma=2, weights="loud", eta=0.05, epochs=2, seed=3)
@example(gamma=1, weights="past float", eta=0.05, epochs=2, seed=4)  # drives past float64's exact range
@given(gamma=st.integers(1, 16), weights=st.sampled_from(sorted(WEIGHTS)), eta=st.sampled_from((0.0, 0.05, 1.0)),
       epochs=st.integers(2, 3), seed=st.integers(0, 2**16))
def test_training_equals_the_reference_learner(model, order, gamma, weights, eta, epochs, seed):
    # the learner acts only on the steps its readout's loop finds the rule
    # acting on, rebuilding the trace there from stored strides; the
    # reference steps the rule and the trace on every step. Every run's
    # outputs and saturations, the weights after it and the epoch accuracies agree
    runs, report, (reference, epoch_acc) = _trained(model, order, gamma, weights, eta, epochs, seed)
    assert len(runs) == len(reference)
    for (readout, w), (ref, ref_w, _) in zip(runs, reference):
        assert np.array_equal(readout.outs, ref.outs)
        assert readout.saturations == ref.saturations
        assert np.array_equal(w, ref_w)
    assert report.epoch_train_accuracy == epoch_acc


@pytest.mark.parametrize("model, order, gamma, weights", [
    ("iow-lif", "second", 1, "quiet"), ("iow-lif", "second", 4, "loud"), ("iow-lif", "first", 16, "quiet"),
    ("iow-burst-lif", "zeroth", 1, "loud"), ("lif", "zeroth", 2, "past float"),
])
def test_the_rule_runs_only_on_acting_steps_and_rebuilds_little_trace(model, order, gamma, weights):
    # the learner's hook fires exactly on the steps where the reference's rule
    # acts, with the same arguments, and each call re-steps its trace fewer
    # than TRACE_STRIDE steps, from the stored strides of its registered
    # pass: no per-step trace work, so at most TRACE_STRIDE steps per call and pass
    calls, rebuilt = [], [0]
    hook, advance = _ReadoutLearner.on_step, tcsnn.learning._step_trace
    real_run = _ReadoutLearner.run

    def run(learner, res, label, record_potentials=False):
        calls.append([])
        return real_run(learner, res, label, record_potentials)

    def on_step(learner, t, potentiate, depressed):
        before = rebuilt[0]
        hook(learner, t, potentiate, depressed)
        calls[-1].append((t, potentiate, list(depressed), rebuilt[0] - before))

    def advancing(trace, row, k, scratch):
        if trace.ndim == 1:  # one pass's trace, not the batch of registered ones
            rebuilt[0] += 1
        return advance(trace, row, k, scratch)

    with mock.patch.object(_ReadoutLearner, "run", run), mock.patch.object(_ReadoutLearner, "on_step", on_step), \
            mock.patch.object(tcsnn.learning, "_step_trace", advancing):
        _, _, (reference, _) = _trained(model, order, gamma, weights, 0.05, 2, 7)
    assert [[call[:3] for call in acting] for acting in calls] == [acting for _, _, acting in reference]
    assert sum(map(len, calls)) > 0
    for acting in calls:
        at = 0  # each call re-steps from the later of the last step it rebuilt and the nearest stored one
        for t, _, _, steps in acting:
            assert steps == t + 1 - max(at, (t + 1) // TRACE_STRIDE * TRACE_STRIDE, 1) < TRACE_STRIDE
            at = t + 1
        assert sum(call[3] for call in acting) <= TRACE_STRIDE * len(acting)

