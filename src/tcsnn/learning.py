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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compress import plan_time_constant
from .fixedpoint import to_fixed
from .network import Network, ReadoutPass, SimulationTrace, _shifts_cached, run_readout, run_reservoir, simulate
from .spike import SpikeDataset

__all__ = [
    "LearningParams",
    "TrainingReport",
    "Classification",
    "train_readout",
    "classify",
    "evaluate",
    "reservoir_passes",
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
        if not 1.0 < self.tau_trace_nom < math.inf:
            raise ValueError("tau_trace_nom must exceed 1 and be finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not -math.inf < self.w_min <= self.w_max < math.inf:
            raise ValueError("w_min must not exceed w_max, and both must be finite")


@dataclass
class TrainingReport:
    """Outcome of one training run."""

    epoch_train_accuracy: list
    test_accuracy: float
    no_spike_examples: int = 0  # test examples classified only by the tie rule
    test_readouts: list[ReadoutPass] = field(default_factory=list)  # the trained readout's runs, in test order


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
        self.plan = plan_time_constant(params.tau_trace_nom, gamma, max_shift=fmt.total_bits - 1)
        self.cum = [0] * cfg.num_readout  # output weight so far per readout neuron

    def prepare(self, steps: int):
        self.k_seq = _shifts_cached(self.plan, steps)

    def on_step(self, t: int, delivered: np.ndarray, readout_out):
        """``delivered`` holds each reservoir neuron's spike weight reaching the
        readout at step t, ``readout_out`` each readout neuron's output weight."""
        trace = self.trace
        trace -= trace >> self.k_seq[t]  # one shifter decay, in place
        trace += delivered << self.fmt.frac_bits

        label, cum = self.label, self.cum
        for j, out in enumerate(readout_out):
            cum[j] += out
        teacher_cum = cum[label]
        rival_cum = max(cum[:label] + cum[label + 1:], default=0)  # outputs are never negative
        if teacher_cum - rival_cum >= self.margin:
            return  # teacher winning by the target margin: weights are fine

        # depress only competitive rivals; rows already far behind are
        # left alone so winners do not cycle
        depressed = [j for j, out in enumerate(readout_out)
                     if out and j != label and cum[j] >= teacher_cum - self.margin]
        potentiate = readout_out[label] == 0
        if not (potentiate or depressed):
            return
        w = self.w
        step = (self.eta_fp * trace) >> self.fmt.frac_bits
        if potentiate:
            w[label] += step
        for j in depressed:
            w[j] -= step
        # the clip bounds hold for the whole matrix, not only the rows just changed
        np.maximum(w, self.w_min_fp, out=w)
        np.minimum(w, self.w_max_fp, out=w)


def split_dataset(dataset: SpikeDataset, train_fraction: float, seed: int):
    """Deterministic shuffled train/test split (indices into the dataset)."""
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must be in (0, 1]")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(round(train_fraction * len(dataset)))
    return order[:n_train], order[n_train:]


def reservoir_passes(network: Network, dataset: SpikeDataset, indices, gamma: int, passes: dict | None = None) -> dict:
    """Dataset index -> reservoir pass at ``gamma`` for every index.

    Passes already in ``passes`` are kept; the rest run in one batch.
    """
    passes = dict(passes or {})
    todo = [i for i in dict.fromkeys(int(i) for i in indices) if i not in passes]
    if todo:
        runs = run_reservoir(network, [dataset.row(i) for i in todo], gamma)
        passes.update(zip(todo, runs))
    return passes


def train_readout(
    network: Network,
    dataset: SpikeDataset,
    split: tuple,
    params: LearningParams,
    gamma: int,
    passes: dict | None = None,
) -> TrainingReport:
    """Train the plastic readout at compression ratio ``gamma``.

    ``split`` is a (train_idx, test_idx) pair of dataset indices (see
    :func:`split_dataset`). Training mutates network.w_out in place and is
    fully deterministic under (network, dataset, split, params, gamma). Each
    example's reservoir runs once, or not at all when ``passes`` (see
    :func:`reservoir_passes`) holds it, and serves every epoch and the
    evaluation.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.num_classes > network.config.num_readout:
        raise ValueError("more classes than readout neurons")
    train_idx, test_idx = split
    if len(test_idx) == 0:
        raise ValueError("the test split is empty: lower the train fraction or add examples")

    if params.epochs:
        passes = reservoir_passes(network, dataset, train_idx, gamma, passes)
    epoch_acc = []
    for _ in range(params.epochs):
        correct = 0
        for i in train_idx:
            label = int(dataset.labels[i])
            learner = _ReadoutLearner(network, params, gamma, label)
            steps = -(-dataset.length_steps // gamma)
            learner.prepare(steps)
            trace = simulate(network, dataset.row(i), gamma=gamma, reservoir=passes[int(i)], _learner=learner)
            if classify(trace).label == label:
                correct += 1
        epoch_acc.append(100.0 * correct / len(train_idx) if len(train_idx) else 0.0)

    test_acc, no_spike, runs = evaluate(network, dataset, test_idx, gamma, passes)
    return TrainingReport(epoch_acc, test_acc, no_spike, runs)


def evaluate(network: Network, dataset: SpikeDataset, indices, gamma: int, passes: dict | None = None):
    """Accuracy (percent) over the given examples with frozen weights.

    Returns the accuracy, the number of examples whose readout stayed
    silent, and the readout's run on each example, in ``indices`` order.
    The frozen readout runs once over all the examples' passes, as one batch.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("no examples to evaluate")
    passes = reservoir_passes(network, dataset, indices, gamma, passes)
    runs = run_readout(network, [passes[int(i)] for i in indices], gamma)
    correct = 0
    no_spike = 0
    for i, run in zip(indices, runs):
        trace = simulate(network, dataset.row(i), gamma=gamma, reservoir=passes[int(i)], readout=run)
        result = classify(trace)
        correct += int(result.label == dataset.labels[i])
        no_spike += int(result.no_spike)
    return 100.0 * correct / len(indices), no_spike, runs

