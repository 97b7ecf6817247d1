"""The per-step readout learner, kept as the reference that
:func:`tcsnn.learning.train_readout` must agree with: the same weights after
every example, the same readout outputs and saturations, the same epoch
accuracies.

It runs the readout through the array step functions one step at a time,
every site checked, and applies the teacher rule after every step: the
eligibility trace takes one shifter decay and the spike weights delivered
at that step, the teacher's and rivals' output weights are tallied, and
unless the teacher leads every rival by the margin, eta times the trace is
added to a silent teacher's row and taken from each competitive rival that
fired. Whenever the rule touches a row, the whole matrix is clipped.
"""

import numpy as np
from traces import to_fixed

from tcsnn.fixedpoint import FRAC_BITS, saturate
from tcsnn.learning import classify, trace_plan
from tcsnn.network import ReadoutPass, _burst_drives, _plan_shifts, run_reservoir
from tcsnn.neuron import NO_PROOF, STEP_FUNCTIONS, compile_neuron, new_neuron_state, synapse_step


class ReferenceLearner:
    """The teacher rule stepped along with the readout, trace included."""

    def __init__(self, network, params, gamma: int, steps: int):
        self.network = network
        self.w = network.w_out  # mutated in place
        self.eta_fp = to_fixed(params.eta)
        self.w_min_fp = to_fixed(params.w_min)
        self.w_max_fp = to_fixed(params.w_max)
        self.margin = params.teacher_margin
        self.comp = compile_neuron(network.config.lif, gamma)
        self.k_seq = trace_plan(params, gamma, self.comp.n_max).shifts(steps).tolist()
        self.trace = np.zeros(network.config.reservoir_size, dtype=np.int64)
        self.label = 0
        self.teacher_cum = 0
        self.cum = [0] * network.config.num_readout
        self.acting = []  # (step, potentiate, depressed) of each step the rule acted on, this run

    def start(self, label: int):
        """Begin an example of class ``label``: an empty trace and no outputs yet."""
        self.label = label
        self.trace[:] = 0
        self.teacher_cum = 0
        self.cum = [0] * len(self.cum)
        self.acting = []

    def run(self, res, label: int) -> ReadoutPass:
        """The readout's run on ``res``, an example of class ``label``, learning after every step."""
        comp, steps, n = self.comp, res.spikes.shape[0], self.network.config.num_readout
        self.start(label)
        sat = np.zeros(1, dtype=np.int64)
        state = new_neuron_state((1, n), comp.spec.bursting)
        k_m, k_s1, k_s2 = _plan_shifts(comp, steps)
        step_fn = STEP_FUNCTIONS[self.network.config.lif.model]
        bursts = _burst_drives(self.w, res) if comp.spec.bursting else None
        outs = []
        for t in range(steps):
            delivered = res.spikes[t - 1].astype(np.int64) if t else np.zeros(res.spikes.shape[1], dtype=np.int64)
            drive = next(bursts) if bursts is not None else self.w @ delivered
            current = synapse_step(state, saturate(drive[None], sat), comp, k_s1[t], k_s2[t], sat, NO_PROOF)
            out = step_fn(state, current, comp, k_m[t], sat, NO_PROOF)[0].tolist()
            self.on_step(t, delivered << FRAC_BITS, out)
            outs.append(out)
        return ReadoutPass(gamma=comp.gamma, outs=np.array(outs, dtype=np.int64).reshape(steps, n),
                           saturations=int(sat[0]))

    def on_step(self, t: int, delivered_fp: np.ndarray, readout_out):
        """``delivered_fp`` holds each reservoir neuron's spike weight reaching
        the readout at step t, shifted up by ``FRAC_BITS``; ``readout_out``
        holds each readout neuron's output weight."""
        trace = self.trace
        trace -= trace >> self.k_seq[t]
        trace += delivered_fp

        label, cum = self.label, self.cum
        for j, out in enumerate(readout_out):
            if out and j != label:
                cum[j] += out
        teacher_cum = self.teacher_cum = self.teacher_cum + readout_out[label]
        if teacher_cum - max(cum) >= self.margin:
            return
        depressed = [j for j, out in enumerate(readout_out)
                     if out and j != label and cum[j] >= teacher_cum - self.margin]
        potentiate = readout_out[label] == 0
        if not (potentiate or depressed):
            return
        self.acting.append((t, potentiate, depressed))
        w = self.w
        step = (trace * self.eta_fp) >> FRAC_BITS
        if potentiate:
            w[label] += step
        for j in depressed:
            w[j] -= step
        np.clip(w, self.w_min_fp, self.w_max_fp, out=w)


def reference_training(network, dataset, train_idx, params, gamma: int):
    """Train as :func:`~tcsnn.learning.train_readout` does, with the reference learner.

    Returns one record per learning run, in order, (readout pass, weights
    after it, acting steps), and the epoch accuracies.
    """
    passes = run_reservoir(network, map(dataset.row, train_idx), gamma)
    learner = ReferenceLearner(network, params, gamma, -(-dataset.length_steps // gamma))
    runs, epoch_acc = [], []
    for _ in range(params.epochs):
        correct = 0
        for i, res in zip(train_idx, passes):
            label = int(dataset.labels[i])
            readout = learner.run(res, label)
            runs.append((readout, network.w_out.copy(), learner.acting))
            correct += classify(readout).label == label
        epoch_acc.append(100.0 * correct / len(train_idx))
    return runs, epoch_acc
