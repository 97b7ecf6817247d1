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
from .fixedpoint import FRAC_BITS, to_fixed
from .network import (Network, ReadoutPass, ReservoirPass, _compile, _drive_bound, _learning_readout, run_readout,
                      run_reservoir, simulate)
from .neuron import prove_ranges
from .spike import SpikeDataset

__all__ = [
    "LearningParams",
    "TrainingReport",
    "Classification",
    "train_readout",
    "classify",
    "evaluate",
    "split_dataset",
    "trace_plan",
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
    test_passes: list[ReservoirPass] = field(default_factory=list)  # each test example's reservoir pass, in test order
    test_readouts: list[ReadoutPass] = field(default_factory=list)  # the trained readout's runs on those passes


class Classification(NamedTuple):
    label: int
    no_spike: bool


def classify(readout: ReadoutPass) -> Classification:
    """Argmax of total readout spike weight; ties break to the lowest index.

    An all-zero readout yields label 0 with the no_spike flag set.
    """
    totals = readout.outs.sum(axis=0)
    label = int(np.argmax(totals))
    return Classification(label=label, no_spike=bool(totals.max() <= 0))


def trace_plan(params: LearningParams, gamma: int, n_max: int):
    """The shifter plan of the learner's eligibility trace at ``gamma``.

    A weight-w spike adds ``w << FRAC_BITS`` to its trace, so with spike
    weights up to ``n_max`` every trace stays within
    ``n_max * 2**(FRAC_BITS + k_high)``, the decay invariant of
    :func:`~tcsnn.neuron.site_ranges`. The learner's step ``eta * trace`` is
    an int64 product, so a rate that could carry it past 64 bits is rejected.
    """
    plan = plan_time_constant(params.tau_trace_nom, gamma)
    peak = n_max << (FRAC_BITS + plan.k_high)
    if to_fixed(params.eta) * peak > np.iinfo(np.int64).max:
        raise ValueError(
            f"eta {params.eta:g} times a trace of up to {peak} raw (tau_trace {params.tau_trace_nom:g} at gamma "
            f"{gamma}) does not fit 64 bits"
        )
    return plan


class _ReadoutLearner:
    """Online trace-based teacher rule, applied while an example runs.

    One learner serves every example of a training run at one ratio: its
    rate, clip bounds, trace schedule, compiled neuron and proven sites are
    fixed at construction, and :meth:`run` runs the readout on one example's
    pass, after :meth:`start` resets the trace and the output tallies.
    """

    def __init__(self, network: Network, params: LearningParams, gamma: int, steps: int):
        cfg = network.config
        self.network = network
        self.w = network.w_out  # mutated in place
        self.eta_fp = to_fixed(params.eta)
        self.w_min_fp = to_fixed(params.w_min)
        self.w_max_fp = to_fixed(params.w_max)
        self.margin = params.teacher_margin
        self.comp = comp = _compile(cfg, gamma)
        # a weight is its start value until the learner clips the whole matrix
        reach = np.maximum(np.abs(self.w), max(abs(self.w_min_fp), abs(self.w_max_fp)))
        self.fits = prove_ranges(comp, _drive_bound(reach, comp.n_max))
        # each step's trace shift as a 0-d array, which a ufunc takes faster than a Python int
        self.k_seq = [np.array(k) for k in trace_plan(params, gamma, comp.n_max).shifts(steps)]
        self.trace = np.zeros(cfg.reservoir_size, dtype=np.int64)
        self._scratch = np.empty_like(self.trace)
        self.label = 0
        self.teacher_cum = 0  # the teacher's output weight so far
        self.cum = [0] * cfg.num_readout  # each rival's output weight so far; the teacher's entry stays 0

    def start(self, label: int):
        """Begin an example of class ``label``: an empty trace and no outputs yet."""
        self.label = label
        self.trace.fill(0)
        self.teacher_cum = 0
        self.cum = [0] * len(self.cum)

    def run(self, res: ReservoirPass, label: int, record_potentials: bool = False) -> ReadoutPass:
        """The readout's run on ``res``, an example of class ``label``, learning as it goes."""
        if res.gamma != self.comp.gamma:
            raise ValueError(f"reservoir pass ran at gamma {res.gamma}, not {self.comp.gamma}")
        self.start(label)
        return _learning_readout(self.network, res, self.comp, self.fits, self.on_step, record_potentials)

    def on_step(self, t: int, delivered_fp: np.ndarray, readout_out):
        """``delivered_fp`` holds each reservoir neuron's spike weight reaching
        the readout at step t, shifted up by ``FRAC_BITS``; ``readout_out``
        holds each readout neuron's output weight."""
        trace = self.trace
        trace -= np.right_shift(trace, self.k_seq[t], self._scratch)  # one shifter decay, in place
        trace += delivered_fp

        label, cum = self.label, self.cum
        for j, out in enumerate(readout_out):
            if out and j != label:
                cum[j] += out
        teacher_cum = self.teacher_cum = self.teacher_cum + readout_out[label]
        if teacher_cum - max(cum) >= self.margin:  # outputs are never negative, so the 0 stands for no rival
            return  # teacher winning by the target margin: weights are fine

        # depress only competitive rivals; rows already far behind are
        # left alone so winners do not cycle
        depressed = [j for j, out in enumerate(readout_out)
                     if out and j != label and cum[j] >= teacher_cum - self.margin]
        potentiate = readout_out[label] == 0
        if not (potentiate or depressed):
            return
        w = self.w
        step = np.multiply(trace, self.eta_fp, out=self._scratch)
        step >>= FRAC_BITS
        if potentiate:
            w[label] += step
        for j in depressed:
            w[j] -= step
        # the clip bounds hold for the whole matrix, not only the rows just changed
        np.maximum(w, self.w_min_fp, out=w)
        np.minimum(w, self.w_max_fp, out=w)


def split_dataset(dataset: SpikeDataset, train_fraction: float, seed: int):
    """Deterministic shuffled train/test split (indices into the dataset)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(round(train_fraction * len(dataset)))
    return order[:n_train], order[n_train:]


def train_readout(
    network: Network,
    dataset: SpikeDataset,
    split: tuple,
    params: LearningParams,
    gamma: int,
) -> TrainingReport:
    """Train the plastic readout at compression ratio ``gamma``.

    ``split`` is a (train_idx, test_idx) pair of dataset indices (see
    :func:`split_dataset`). Training mutates network.w_out in place and is
    fully deterministic under (network, dataset, split, params, gamma). The
    reservoir runs once, as one batch over the training examples (when there
    are epochs) and then the test examples; each training pass serves every
    epoch, and the test passes serve the evaluation and come back in the report.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.num_classes > network.config.num_readout:
        raise ValueError("more classes than readout neurons")
    train_idx, test_idx = split
    if len(test_idx) == 0:
        raise ValueError("the test split is empty: lower the train fraction or add examples")
    if params.epochs and len(train_idx) == 0:
        raise ValueError("the training split is empty: raise the train fraction or add examples")

    passes = run_reservoir(network, map(dataset.row, [*train_idx, *test_idx] if params.epochs else test_idx), gamma)
    n_train = len(passes) - len(test_idx)
    epoch_acc = []
    learner = _ReadoutLearner(network, params, gamma, -(-dataset.length_steps // gamma)) if params.epochs else None
    for _ in range(params.epochs):
        correct = 0
        for i, res in zip(train_idx, passes[:n_train]):
            label = int(dataset.labels[i])
            if classify(learner.run(res, label)).label == label:
                correct += 1
        epoch_acc.append(100.0 * correct / len(train_idx))

    test_passes = passes[n_train:]
    test_acc, no_spike, runs = evaluate(network, dataset, test_idx, gamma, test_passes)
    return TrainingReport(epoch_acc, test_acc, no_spike, test_passes, runs)


def evaluate(network: Network, dataset: SpikeDataset, indices, gamma: int, passes: list[ReservoirPass]):
    """Accuracy (percent) over the given examples with frozen weights.

    ``passes`` holds each example's reservoir pass at ``gamma``, in
    ``indices`` order. Returns the accuracy, the number of examples whose
    readout stayed silent, and the readout's run on each example, in the same
    order. The frozen readout runs once over all the passes, as one batch.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("no examples to evaluate")
    if len(passes) != len(indices):
        raise ValueError(f"{len(passes)} reservoir passes for {len(indices)} examples")
    runs = run_readout(network, passes, gamma)
    correct = 0
    no_spike = 0
    for i, res, run in zip(indices, passes, runs):
        result = classify(simulate(network, dataset.row(i), gamma=gamma, reservoir=res, readout=run).readout)
        correct += int(result.label == dataset.labels[i])
        no_spike += int(result.no_spike)
    return 100.0 * correct / len(indices), no_spike, runs
