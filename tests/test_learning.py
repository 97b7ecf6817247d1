import numpy as np
import pytest

from tcsnn.fixedpoint import to_fixed
from tcsnn.learning import LearningParams, _ReadoutLearner, evaluate, train_readout
from tcsnn.network import LsmConfig, build_lsm
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


def test_evaluate_without_examples_is_an_error():
    net, dataset = small_task()
    with pytest.raises(ValueError):
        evaluate(net, dataset, [], gamma=2)


def test_silent_teacher_is_potentiated_through_the_delivered_spikes():
    # one step: the trace holds each delivered spike weight, and a silent
    # teacher row grows by eta times it; the rival row is left alone
    net, _ = small_task()
    params = LearningParams(eta=0.25)
    learner = _ReadoutLearner(net, params, gamma=2, label=1)
    learner.prepare(1)
    delivered = np.zeros(27, dtype=np.int64)
    delivered[[3, 20]] = [2, 5]
    learner.on_step(0, delivered, np.zeros(2, dtype=np.int64))
    assert np.array_equal(learner.trace, delivered << 16)
    assert np.array_equal(net.w_out[1], (to_fixed(params.eta) * (delivered << 16)) >> 16)
    assert not net.w_out[0].any()


def test_a_touched_step_clips_the_whole_matrix():
    # the clip bounds hold for every weight once the rule touches any row:
    # weights starting below w_min are lifted in the rows it did not change too
    net, _ = small_task()
    params = LearningParams(eta=1.0, w_min=0.5)
    learner = _ReadoutLearner(net, params, gamma=2, label=1)
    learner.prepare(2)
    silent = np.zeros(2, dtype=np.int64)
    learner.on_step(0, np.zeros(27, dtype=np.int64), np.array([0, 1]))  # teacher fired: untouched
    assert not net.w_out.any()
    delivered = np.zeros(27, dtype=np.int64)
    delivered[3] = 1
    learner.on_step(1, delivered, silent)
    w_min = to_fixed(params.w_min)
    assert net.w_out[1, 3] == to_fixed(1.0)  # the one weight the rule moved, from 0 by eta times the trace
    assert (net.w_out[0] == w_min).all()
    assert (np.delete(net.w_out[1], 3) == w_min).all()
