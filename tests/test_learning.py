import numpy as np
import pytest

from tcsnn.compress import plan_time_constant
from tcsnn.fixedpoint import to_fixed
import tcsnn.learning
from tcsnn.learning import LearningParams, _ReadoutLearner, evaluate, split_dataset, train_readout
from tcsnn.network import LsmConfig, build_lsm, run_reservoir
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


def test_silent_teacher_is_potentiated_through_the_delivered_spikes():
    # one step: the trace holds each delivered spike weight, and a silent
    # teacher row grows by eta times it; the rival row is left alone
    net, _ = small_task()
    params = LearningParams(eta=0.25)
    learner = _ReadoutLearner(net, params, gamma=2, steps=1)
    learner.start(label=1)
    delivered = np.zeros(27, dtype=np.int64)
    delivered[[3, 20]] = [2, 5]
    learner.on_step(0, delivered << 16, np.zeros(2, dtype=np.int64))
    assert np.array_equal(learner.trace, delivered << 16)
    assert np.array_equal(net.w_out[1], (to_fixed(params.eta) * (delivered << 16)) >> 16)
    assert not net.w_out[0].any()


def test_a_touched_step_clips_the_whole_matrix():
    # the clip bounds hold for every weight once the rule touches any row:
    # weights starting below w_min are lifted in the rows it did not change too
    net, _ = small_task()
    params = LearningParams(eta=1.0, w_min=0.5)
    learner = _ReadoutLearner(net, params, gamma=2, steps=2)
    learner.start(label=1)
    silent = np.zeros(2, dtype=np.int64)
    learner.on_step(0, np.zeros(27, dtype=np.int64), np.array([0, 1]))  # teacher fired: untouched
    assert not net.w_out.any()
    delivered = np.zeros(27, dtype=np.int64)
    delivered[3] = 1
    learner.on_step(1, delivered << 16, silent)
    w_min = to_fixed(params.w_min)
    assert net.w_out[1, 3] == to_fixed(1.0)  # the one weight the rule moved, from 0 by eta times the trace
    assert (net.w_out[0] == w_min).all()
    assert (np.delete(net.w_out[1], 3) == w_min).all()


def test_the_trace_advances_in_place_as_the_reference_recurrence():
    # at gamma 4 the trace's time constant of 16 steps scales to 4.4, which
    # the shifter schedule realizes by toggling between shifts of 2 and 3
    net, _ = small_task()
    params = LearningParams(eta=0.0)
    steps = 60
    shifts = plan_time_constant(params.tau_trace_nom, 4).shifts(steps)
    assert set(shifts.tolist()) == {2, 3}
    learner = _ReadoutLearner(net, params, gamma=4, steps=steps)
    rng = np.random.default_rng(5)
    for label in (0, 1):  # a second example starts from an empty trace
        learner.start(label)
        trace = np.zeros(27, dtype=np.int64)
        for t, k in enumerate(shifts):
            delivered = rng.integers(0, 8, size=27)
            learner.on_step(t, delivered << 16, [0, 0])
            trace = trace - (trace >> k) + (delivered << 16)
            assert np.array_equal(learner.trace, trace)


def test_a_rate_whose_step_could_pass_int64_is_rejected():
    # with a trace time constant of 1e5 steps, every reservoir neuron
    # delivering weight 7 for 12,000 steps raises its trace to 5,149,738,701
    # raw; eta 32767 times that passes int64 (the exact step is +1.69e14), so
    # an int64 step would wrap negative and clip a silent teacher's row to
    # w_min instead of w_max
    net, _ = small_task()
    loud = LearningParams(eta=32767.0, tau_trace_nom=1e5, w_min=-30000.0, w_max=30000.0)
    trace = np.full(27, 5_149_738_701, dtype=np.int64)
    assert to_fixed(loud.eta) * 5_149_738_701 >> 16 == 32767 * 5_149_738_701  # about 1.69e14
    assert (((to_fixed(loud.eta) * trace) >> 16) < 0).all()  # what int64 made of it
    with pytest.raises(ValueError, match="does not fit 64 bits"):
        _ReadoutLearner(net, loud, gamma=1, steps=12_000)

    # a rate whose product stays inside int64 at the worst-case trace, 7 << (16 + 17),
    # is exact there: the teacher's row reaches w_max
    params = LearningParams(eta=2000.0, tau_trace_nom=1e5, w_min=-30000.0, w_max=30000.0)
    assert to_fixed(params.eta) * (7 << (16 + 17)) < 2**63
    learner = _ReadoutLearner(net, params, gamma=1, steps=12_000)
    learner.start(label=1)
    delivered = np.full(27, 7 << 16, dtype=np.int64)
    for t in range(12_000):
        learner.on_step(t, delivered, [0, 0])
    assert (learner.trace == 5_149_738_701).all()
    assert (net.w_out[1] == to_fixed(params.w_max)).all()
    assert not net.w_out[0].any()
