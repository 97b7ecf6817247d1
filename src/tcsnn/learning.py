"""Supervised spike-dependent training of the plastic readout layer.

Each reservoir neuron keeps an exponential spike trace whose time constant
scales with the compression ratio exactly like the membrane and synapse
constants. Per timestep, unless the teacher readout neuron (the example's
label) leads every rival by the teacher margin, it is potentiated through
the traces if it failed to fire, and each competitive rival that did fire
is depressed. A weight-w spike contributes w to the trace, so training
behaves identically on compressed and raw runs of the same activity.

The readout's loop keeps the teacher's tallies and calls the learner only
on the steps where the rule acts. The trace does not depend on the weights,
so it is computed before epoch 1, once for all training passes, and every
``TRACE_STRIDE``-th step of it is kept; an acting step rebuilds the trace
from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compress import plan_time_constant
from .fixedpoint import FRAC_BITS, fixed_constant
from .network import (Network, ReadoutPass, ReservoirPass, _drive_bound, _learning_readout, run_readout, run_reservoir,
                      simulate)
from .neuron import compile_neuron, prove_ranges
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
        for name in ("eta", "w_min", "w_max"):  # constants of the datapath
            fixed_constant(name, getattr(self, name))


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
    if fixed_constant("eta", params.eta) * peak > np.iinfo(np.int64).max:
        raise ValueError(
            f"eta {params.eta:g} times a trace of up to {peak} raw (tau_trace {params.tau_trace_nom:g} at gamma "
            f"{gamma}) does not fit 64 bits"
        )
    return plan


TRACE_STRIDE = 32  # steps between two stored traces of a training pass
# ufunc operands as 0-d int64 arrays, which a ufunc takes faster than a Python int, and
# which widen a uint8 row they multiply to int64
SCALE64, FRAC64 = np.array(1 << FRAC_BITS), np.array(FRAC_BITS)


def _step_trace(trace: np.ndarray, row: np.ndarray, k, scratch: np.ndarray) -> None:
    """One step of the eligibility trace, in place: a shifter decay by ``k``,
    then the spike weights ``row`` reaching it, widened to int64 in
    ``scratch``, times ``2**FRAC_BITS``. ``trace`` may carry leading batch
    axes that ``row`` shares."""
    trace -= np.right_shift(trace, k, out=scratch)
    trace += np.multiply(row, SCALE64, out=scratch)


class _ReadoutLearner:
    """Online trace-based teacher rule, applied while an example runs.

    One learner serves every example of a training run at one ratio: its
    rate, clip bounds, trace schedule, compiled neuron and proven sites are
    fixed at construction, and :meth:`run` runs the readout on one example's
    pass. The readout kernel keeps the teacher's tallies and calls
    :meth:`on_step` only on the steps where the rule acts, so the weights
    change only there.

    The eligibility trace depends on the pass alone, not on the weights, so
    it is not stepped along with the readout. :meth:`register` steps it once
    over all the training passes, as one batch, and stores every
    ``TRACE_STRIDE``-th step of it. On an acting step, :meth:`on_step`
    rebuilds the trace there from the later of the step it last rebuilt and
    the nearest stored one, so it re-steps fewer than ``TRACE_STRIDE`` steps
    per call. A pass that was never registered starts from the empty trace
    at step 0.
    """

    def __init__(self, network: Network, params: LearningParams, gamma: int, steps: int):
        cfg = network.config
        self.network = network
        self.w = network.w_out  # mutated in place
        self.eta_fp, self.w_min_fp, self.w_max_fp = (  # 0-d arrays
            np.array(fixed_constant(name, getattr(params, name))) for name in ("eta", "w_min", "w_max"))
        self.margin = params.teacher_margin
        self.comp = comp = compile_neuron(cfg.lif, gamma)
        # a weight is its start value until the learner clips the whole matrix
        reach = np.maximum(np.abs(self.w), max(abs(self.w_min_fp), abs(self.w_max_fp)))
        self.fits = prove_ranges(comp, _drive_bound(reach, comp.n_max))
        self.k_seq = [np.array(k) for k in trace_plan(params, gamma, comp.n_max).shifts(steps)]
        self.checkpoints = {}  # registered pass -> its trace before steps 0, TRACE_STRIDE, 2 * TRACE_STRIDE, ...
        self._empty = np.zeros((1, cfg.reservoir_size), dtype=np.int64)
        self.trace = np.zeros(cfg.reservoir_size, dtype=np.int64)
        self._scratch, self._step = np.empty_like(self.trace), np.empty_like(self.trace)
        self._rows = list(self.w)  # a view of each row
        self._inside = bool(((self.w >= self.w_min_fp) & (self.w <= self.w_max_fp)).all())
        self.start(None, 0)

    def register(self, passes) -> None:
        """Step the trace over ``passes`` side by side and keep every ``TRACE_STRIDE``-th step of it.

        The passes' spikes are read one stride at a time, so the loop holds
        no more than a stride of them at once.
        """
        passes = list(passes)
        steps = passes[0].spikes.shape[0]  # a batch's passes run equally long
        stored = np.zeros((len(passes), steps // TRACE_STRIDE + 1, self.trace.size), dtype=np.int64)
        trace = np.zeros((len(passes), self.trace.size), dtype=np.int64)
        scratch = np.empty_like(trace)
        for c in range(1, stored.shape[1]):
            # steps (c-1)*STRIDE .. c*STRIDE - 1 take the spikes of the step before; step 0 takes none
            lo, hi = max((c - 1) * TRACE_STRIDE, 1), c * TRACE_STRIDE
            stride = np.stack([p.spikes[lo - 1:hi - 1] for p in passes], axis=1)  # (steps, passes, neurons)
            for row, k in zip(stride, self.k_seq[lo:hi]):
                _step_trace(trace, row, k, scratch)
            stored[:, c] = trace
        self.checkpoints.update(zip(passes, stored))

    def start(self, res: ReservoirPass | None, label: int):
        """Begin the pass ``res`` of an example of class ``label``: no trace rebuilt yet."""
        self.res = res
        self.label = label
        self._stored = self.checkpoints.get(res, self._empty)
        self._last = len(self._stored) - 1
        self._at = -1  # self.trace holds the trace before this step; -1 while it holds none

    def run(self, res: ReservoirPass, label: int, record_potentials: bool = False) -> ReadoutPass:
        """The readout's run on ``res``, an example of class ``label``, learning as it goes."""
        if res.gamma != self.comp.gamma:
            raise ValueError(f"reservoir pass ran at gamma {res.gamma}, not {self.comp.gamma}")
        self.start(res, label)
        return _learning_readout(self.network, res, self.comp, self.fits, label, self.margin, self.on_step,
                                 record_potentials)

    def trace_at(self, t: int) -> np.ndarray:
        """The trace after step ``t`` of the current pass, rebuilt in ``self.trace``."""
        stop, trace = t + 1, self.trace
        c = min(stop // TRACE_STRIDE, self._last)
        lo = c * TRACE_STRIDE
        if lo > self._at:  # the stored step is closer than the last rebuilt one
            trace[:] = self._stored[c]
        else:
            lo = self._at
        spikes, k_seq, scratch = self.res.spikes, self.k_seq, self._scratch
        for s in range(lo or 1, stop):  # step 0 delivers nothing
            _step_trace(trace, spikes[s - 1], k_seq[s], scratch)
        self._at = stop
        return trace

    def on_step(self, t: int, potentiate: bool, depressed):
        """Apply the teacher rule at step ``t``: grow the teacher's row by
        eta times the trace if ``potentiate``, shrink each row in
        ``depressed`` by as much, then clip the whole matrix to the bounds.

        A step is never negative, so once every weight lies inside the
        bounds, a grown row can pass only the upper bound and a shrunk one
        only the lower, and no other weight moves: the clip then takes only
        the rows just changed, on the side they moved toward.
        """
        step = np.multiply(self.trace_at(t), self.eta_fp, out=self._step)
        step >>= FRAC64
        rows, inside = self._rows, self._inside
        if potentiate:
            row = rows[self.label]
            row += step
            if inside:
                np.minimum(row, self.w_max_fp, out=row)
        for j in depressed:
            row = rows[j]
            row -= step
            if inside:
                np.maximum(row, self.w_min_fp, out=row)
        if not inside:  # the clip bounds hold for the whole matrix, not only the rows just changed
            np.maximum(self.w, self.w_min_fp, out=self.w)
            np.minimum(self.w, self.w_max_fp, out=self.w)
            self._inside = True


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
    Before epoch 1, the learner steps the eligibility trace over all training
    passes at once and keeps every ``TRACE_STRIDE``-th step of it for them.
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
    learner = None
    if params.epochs:
        learner = _ReadoutLearner(network, params, gamma, passes[0].spikes.shape[0])
        learner.register(passes[:n_train])
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
