"""Golden learning runs: bit-exact fingerprints of trained readouts.

``train_readout`` runs on a small synthetic task (3 classes, 20 channels,
40 steps, a 27-neuron 3x3x3 reservoir, 3 epochs) for ``iow-lif`` in every
synapse order at three ratios, for ``lif``, ``iw-lif`` and ``burst-lif`` at
gamma 1 and 4 and for ``iow-burst-lif`` at gamma 4. ``iow-lif`` and
``iw-lif`` with second-order synapses also run at gamma 8, the higher ratio
of the ``train`` benchmark workload. Two variants of
``iow-lif`` close the table: a leakless membrane, and a learner loud enough
(eta 1000, weights up to +/- 2**14) that its readout clamps. Each case is
pinned by a hash of the final readout weights, the epoch curve, the test
accuracy and the no-spike count, so a refactor of the learner or the
learn-mode readout must leave every entry unchanged.

``PYTHONPATH=src python tests/test_learning_golden.py`` prints the table for the current code.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from tcsnn import learning
from tcsnn.learning import LearningParams, split_dataset, train_readout
from tcsnn.network import LsmConfig, build_lsm
from tcsnn.neuron import BurstParams, LIFParams, SynapseParams
from tcsnn.spike import synthetic_task

CLASSES, CHANNELS, STEPS = 3, 20, 40
PARAMS = LearningParams(eta=0.01, epochs=3)
LOUD = LearningParams(eta=1000.0, epochs=3, w_min=-2.0**14, w_max=2.0**14)
VARIANTS = ("leakless", "clamping")

# (model, synapse order, gamma[, variant]) -> hash of w_out, epoch curve, test accuracy and no-spike count
GOLDEN = {
    ('iow-lif', 'zeroth', 1): 'e46101eecac75b5a',
    ('iow-lif', 'zeroth', 4): 'e06aaca5417006da',
    ('iow-lif', 'zeroth', 16): '47d5d9c6e3de3083',
    ('iow-lif', 'first', 1): 'ea1991d5d3ceedd3',
    ('iow-lif', 'first', 4): '9d37e1c99eee597e',
    ('iow-lif', 'first', 16): '47d5d9c6e3de3083',
    ('iow-lif', 'second', 1): '772c35dd599f51a4',
    ('iow-lif', 'second', 4): 'c2c0b3d302c4811c',
    ('iow-lif', 'second', 16): '0acbfd0b49b3632b',
    ('iow-burst-lif', 'zeroth', 4): 'b290a5560c6b415b',
    ('lif', 'second', 1): '5447540942432f30',
    ('lif', 'second', 4): '605255bb2b6242c6',
    ('iw-lif', 'second', 1): '5447540942432f30',
    ('iw-lif', 'second', 4): 'cc498f7ee840d517',
    ('burst-lif', 'zeroth', 1): '2bf88ec44eefdd5c',
    ('burst-lif', 'zeroth', 4): '5ed09c88360c6bb4',
    ('iow-lif', 'second', 8): 'e35c9057dcdbe2f5',
    ('iw-lif', 'second', 8): '88f7b519cfe6e07f',
    ('iow-lif', 'second', 4, 'leakless'): 'f43b7e5ac1d905f8',
    ('iow-lif', 'second', 4, 'clamping'): '82e4685fa6a6d5e1',
}


def _cases():
    cases = [("iow-lif", order, gamma) for order in ("zeroth", "first", "second") for gamma in (1, 4, 16)]
    cases += [("iow-burst-lif", "zeroth", 4)]
    others = (("lif", "second"), ("iw-lif", "second"), ("burst-lif", "zeroth"))
    cases += [(model, order, gamma) for model, order in others for gamma in (1, 4)]
    cases += [("iow-lif", "second", 8), ("iw-lif", "second", 8)]
    return cases + [("iow-lif", "second", 4, variant) for variant in VARIANTS]


def _train(model, order, gamma, variant=None):
    """The trained network and its report."""
    dataset = synthetic_task(num_classes=CLASSES, num_channels=CHANNELS, length_steps=STEPS,
                             jitter_steps=2, examples_per_class=5, seed=3)
    tau_m = math.inf if variant == "leakless" else LIFParams.tau_m_nom
    cfg = LsmConfig(
        num_inputs=CHANNELS,
        reservoir_size=27,
        num_readout=CLASSES,
        reservoir_grid=(3, 3, 3),
        model=model,
        seed=3,
        lif=LIFParams(tau_m_nom=tau_m, synapse=SynapseParams(order=order)),
        burst=BurstParams() if "burst" in model else None,
    )
    net = build_lsm(cfg)
    params = LOUD if variant == "clamping" else PARAMS
    return net, train_readout(net, dataset, split_dataset(dataset, 0.8, seed=3), params, gamma)


def fingerprint(*case):
    net, report = _train(*case)
    h = hashlib.sha256(np.ascontiguousarray(net.w_out, dtype="<i8").tobytes())
    h.update(json.dumps([report.epoch_train_accuracy, report.test_accuracy, report.no_spike_examples]).encode())
    return h.hexdigest()[:16]


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_cases())


def test_loud_learner_clamps_its_readout(monkeypatch):
    # the clamping case pins learn-mode runs whose readout saturates
    saturations = []
    real = learning._ReadoutLearner.run

    def counting(*args, **kwargs):
        readout = real(*args, **kwargs)
        saturations.append(readout.saturations)
        return readout

    monkeypatch.setattr(learning._ReadoutLearner, "run", counting)
    _train("iow-lif", "second", 4, "clamping")
    assert sum(saturations) > 0


@pytest.mark.parametrize("case", _cases(), ids=lambda c: "-".join(map(str, c)))
def test_learning_matches_golden(case):
    assert fingerprint(*case) == GOLDEN[case]


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case!r}: {fingerprint(*case)!r},")
