"""Supervised spike-dependent training of the plastic readout layer.

Each reservoir neuron keeps an exponential spike trace whose time constant
scales with the compression ratio exactly like the membrane and synapse
constants. Per timestep, the teacher readout neuron (the example's label) is
potentiated through the traces whenever it failed to fire, and any other
readout neuron that did fire is depressed. A weight-w spike contributes w to
the trace, so training behaves identically on compressed and raw runs of the
same activity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compress import decay_step, plan_time_constant
from .fixedpoint import to_fixed
from .network import Network, SimulationTrace, simulate
from .spike import SpikeDataset

__all__ = [
    "LearningParams",
    "TrainingReport",
    "Classification",
    "train_readout",
    "classify",
    "evaluate",
    "split_dataset",
]


@dataclass(frozen=True)
class LearningParams:
    """Readout training hyperparameters (weights and eta in fixed point)."""

    eta: float = 0.002
    tau_trace_nom: float = 16.0
    teacher_margin: int = 4
    epochs: int = 30
    w_min: float = -4.0
    w_max: float = 4.0

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:
            raise ValueError("eta must be >= 0 and finite")
        if self.tau_trace_nom <= 1.0:
            raise ValueError("tau_trace_nom must exceed 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not -math.inf < self.w_min <= self.w_max < math.inf:
            raise ValueError("w_min must not exceed w_max, and both must be finite")


@dataclass
class TrainingReport:
    """Outcome of one training run."""

    epoch_train_accuracy: list
    test_accuracy: float
    epochs_run: int
    weights: np.ndarray  # raw fixed-point snapshot (readout x reservoir)
    no_spike_examples: int = 0  # test examples classified only by the tie rule

    def __eq__(self, other):
        if not isinstance(other, TrainingReport):
            return NotImplemented
        return (
            self.epoch_train_accuracy == other.epoch_train_accuracy
            and self.test_accuracy == other.test_accuracy
            and self.epochs_run == other.epochs_run
            and self.no_spike_examples == other.no_spike_examples
            and np.array_equal(self.weights, other.weights)
        )


class Classification(NamedTuple):
    label: int
    no_spike: bool


def classify(trace: SimulationTrace) -> Classification:
    """Argmax of total readout spike weight; ties break to the lowest index.

    An all-zero readout yields label 0 with the no_spike flag set.
    """
    totals = trace.readout_totals()
    label = int(np.argmax(totals))
    return Classification(label=label, no_spike=bool(totals.max() <= 0))


class _ReadoutLearner:
    """Online trace-based teacher rule, applied while an example runs."""

    def __init__(self, network: Network, params: LearningParams, gamma: int, label: int):
        cfg = network.config
        fmt = cfg.fmt
        self.w = network.w_out  # mutated in place
        self.fmt = fmt
        self.eta_fp = to_fixed(params.eta, fmt)
        self.w_min_fp = to_fixed(params.w_min, fmt)
        self.w_max_fp = to_fixed(params.w_max, fmt)
        self.margin = params.teacher_margin
        self.label = label
        self.trace = np.zeros(cfg.reservoir_size, dtype=np.int64)
        self.k_seq = None
        self.plan = plan_time_constant(params.tau_trace_nom, gamma)
        self.cum = np.zeros(cfg.num_readout, dtype=np.int64)
        self.others = np.arange(cfg.num_readout) != label

    def prepare(self, steps: int):
        self.k_seq = self.plan.shifts(steps)

    def on_step(self, t: int, delivered_cols: np.ndarray, delivered_w: np.ndarray, readout_out: np.ndarray):
        self.trace = decay_step(self.trace, int(self.k_seq[t]))
        if delivered_cols.size:
            self.trace[delivered_cols] += delivered_w << self.fmt.frac_bits

        self.cum += readout_out
        teacher_cum = self.cum[self.label]
        rival_cum = self.cum[self.others].max() if self.others.any() else 0
        if teacher_cum - rival_cum >= self.margin:
            return  # teacher winning by the target margin: weights are fine

        touched = False
        step = (self.eta_fp * self.trace) >> self.fmt.frac_bits
        if readout_out[self.label] == 0:
            self.w[self.label] += step
            touched = True
        # depress only competitive rivals; rows already far behind are
        # left alone so winners do not cycle
        for j in np.flatnonzero(readout_out):
            if j != self.label and self.cum[j] >= teacher_cum - self.margin:
                self.w[j] -= step
                touched = True
        if touched:
            np.clip(self.w, self.w_min_fp, self.w_max_fp, out=self.w)


def split_dataset(dataset: SpikeDataset, train_fraction: float, seed: int):
    """Deterministic shuffled train/test split (indices into the dataset)."""
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must be in (0, 1]")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(round(train_fraction * len(dataset)))
    return order[:n_train], order[n_train:]


def train_readout(
    network: Network,
    dataset: SpikeDataset,
    split: float | tuple,
    params: LearningParams,
    gamma: int,
    seed: int = 0,
) -> TrainingReport:
    """Train the plastic readout at compression ratio ``gamma``.

    ``split`` is either a train fraction or an explicit (train_idx, test_idx)
    pair. Training mutates network.w_out in place and is fully deterministic
    under (network, dataset, params, gamma, seed).
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.num_classes > network.config.num_readout:
        raise ValueError("more classes than readout neurons")
    if isinstance(split, tuple):
        train_idx, test_idx = split
    else:
        train_idx, test_idx = split_dataset(dataset, split, seed)
    if len(test_idx) == 0:
        raise ValueError("the test split is empty: lower the train fraction or add examples")

    epoch_acc = []
    for _ in range(params.epochs):
        correct = 0
        for i in train_idx:
            trains, label = dataset.examples[i]
            learner = _ReadoutLearner(network, params, gamma, label)
            steps = -(-dataset.length_steps // gamma)
            learner.prepare(steps)
            trace = simulate(network, trains, mode="compressed", gamma=gamma, record_events=False, _learner=learner)
            if classify(trace).label == label:
                correct += 1
        epoch_acc.append(100.0 * correct / len(train_idx) if len(train_idx) else 0.0)

    test_acc, no_spike = evaluate(network, dataset, test_idx, gamma)
    return TrainingReport(
        epoch_train_accuracy=epoch_acc,
        test_accuracy=test_acc,
        epochs_run=params.epochs,
        weights=network.w_out.copy(),
        no_spike_examples=no_spike,
    )


def evaluate(network: Network, dataset: SpikeDataset, indices, gamma: int):
    """Accuracy (percent) over the given examples with frozen weights."""
    indices = list(indices)
    if not indices:
        raise ValueError("no examples to evaluate")
    correct = 0
    no_spike = 0
    for i in indices:
        trains, label = dataset.examples[i]
        result = classify(simulate(network, trains, mode="compressed", gamma=gamma, record_events=False))
        correct += int(result.label == label)
        no_spike += int(result.no_spike)
    return 100.0 * correct / len(indices), no_spike

