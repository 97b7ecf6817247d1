import pytest

from tcsnn.compress import CompressionConfig
from tcsnn.learning import LearningParams, evaluate, train_readout
from tcsnn.network import LsmConfig, build_lsm
from tcsnn.spike import synthetic_task


def small_task():
    dataset = synthetic_task(num_classes=2, num_channels=8, length_steps=30, jitter_steps=2,
                             examples_per_class=3, seed=1)
    cfg = LsmConfig(num_inputs=8, reservoir_size=27, num_readout=2, reservoir_grid=(3, 3, 3),
                    compression=CompressionConfig(gamma=2))
    return build_lsm(cfg), dataset


def test_empty_test_split_is_an_error():
    net, dataset = small_task()
    with pytest.raises(ValueError, match="test split is empty"):
        train_readout(net, dataset, 1.0, LearningParams(epochs=1), gamma=2)


def test_evaluate_without_examples_is_an_error():
    net, dataset = small_task()
    with pytest.raises(ValueError):
        evaluate(net, dataset, [], gamma=2)
