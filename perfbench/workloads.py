"""Benchmark workloads: each one is a generated `tcsnn run` config.

Every workload keeps the paper-scale network (78 input channels x 500 steps,
a 135-neuron 3x3x15 reservoir, 5 classes, an 80/20 split). They differ in
model, ratios, epochs, workers and example count, so that each stresses a
different mix of layers; NOTES.md says which and why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CLASSES = 5
CHANNELS = 78
STEPS = 500
RESERVOIR = 135
GRID = (3, 3, 15)
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    synapse_order: str
    gammas: tuple
    epochs: int
    workers: int
    examples_per_class: int
    event_file: bool  # dataset read from an event file written during set-up

    @property
    def num_examples(self) -> int:
        return CLASSES * self.examples_per_class

    @property
    def split(self) -> tuple:
        """(train, test) example counts, as tcsnn.learning.split_dataset rounds them."""
        n_train = int(round(TRAIN_FRACTION * self.num_examples))
        return n_train, self.num_examples - n_train

    @property
    def sim_steps(self) -> int:
        """Logical work: sum over ratios of ceil(L/gamma) x (epochs x n_train + n_test)."""
        n_train, n_test = self.split
        return sum(math.ceil(STEPS / g) * (self.epochs * n_train + n_test) for g in self.gammas)


WORKLOADS = {
    w.name: w
    for w in (
        # learn-mode simulation dominates (4:1 over frozen); the readout
        # learner and the per-epoch re-simulation of a fixed reservoir
        Workload("train", "iow-lif", "second", (1, 8), 2, 1, 6, False),
        # frozen simulation only: five ratios, per-ratio dataset loading from
        # an event file, high-ratio compression and the cli process pool
        Workload("sweep", "iow-lif", "second", (1, 2, 4, 8, 16), 0, 2, 24, True),
        # the bursting branch of the engine with a sparse reservoir and a
        # zeroth-order synapse; run by hand, not listed in BENCHMARK.json
        Workload("burst", "iow-burst-lif", "zeroth", (1, 4), 1, 1, 12, False),
    )
}


def config_text(w: Workload, seed: int, out_dir: str, event_path: str | None = None) -> str:
    """The `tcsnn run` config file for workload ``w`` at ``seed``."""
    lines = [
        "schema_version = 1",
        f"seed = {seed}",
        f"model = {w.model}",
        "gammas = " + " ".join(str(g) for g in w.gammas),
        f"epochs = {w.epochs}",
        f"workers = {w.workers}",
        f"out_dir = {out_dir}",
        f"lsm.reservoir_size = {RESERVOIR}",
        "lsm.grid = " + " ".join(str(n) for n in GRID),
        f"neuron.synapse_order = {w.synapse_order}",
        f"learning.train_fraction = {TRAIN_FRACTION}",
    ]
    if w.event_file:
        lines += ["dataset.kind = event_file", f"dataset.path = {event_path}"]
    else:
        lines += [
            "dataset.kind = synthetic",
            f"dataset.classes = {CLASSES}",
            f"dataset.channels = {CHANNELS}",
            f"dataset.steps = {STEPS}",
            f"dataset.examples_per_class = {w.examples_per_class}",
        ]
    return "\n".join(lines) + "\n"


def write_event_file(path: str, seed: int, examples_per_class: int, steps: int = STEPS) -> None:
    """Write a synthetic task as an event file with tcsnn's own generator."""
    from tcsnn.spike import save_event_file, synthetic_task

    dataset = synthetic_task(
        num_classes=CLASSES,
        num_channels=CHANNELS,
        length_steps=steps,
        jitter_steps=4,
        examples_per_class=examples_per_class,
        seed=seed,
    )
    save_event_file(dataset, path)
