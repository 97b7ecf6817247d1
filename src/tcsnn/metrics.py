"""Quantitative evaluation: spike statistics, raster preservation distance,
event-based energy accounting, and the area-time-energy-loss figure of merit.

Energy coefficients are abstract units; only ratios and trends are
meaningful. FPGA resource counts are always user-supplied inputs, never
estimated here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import SimulationTrace

__all__ = [
    "EnergyModel",
    "AtelInputs",
    "RunReport",
    "binned_raster_distance",
    "binned_counts",
    "energy_estimate",
    "atel",
    "spike_statistics",
    "write_report_json",
    "write_raster_csv",
]


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy coefficients plus static power per timestep.

    ``p_static=None`` uses one unit per neuron per timestep.
    """

    e_synaptic_op: float = 1.0
    e_neuron_update: float = 1.0
    e_spike: float = 0.5
    p_static: float | None = None

    def __post_init__(self):
        for name in ("e_synaptic_op", "e_neuron_update", "e_spike", "p_static"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")


def energy_estimate(trace: SimulationTrace, model: EnergyModel = EnergyModel()) -> float:
    """Total run energy: static power x timesteps plus per-event costs."""
    p_static = trace.num_neurons if model.p_static is None else model.p_static
    c = trace.counters
    return (
        p_static * trace.timestep_count
        + model.e_synaptic_op * c.synaptic_ops
        + model.e_neuron_update * c.neuron_updates
        + model.e_spike * c.spike_events
    )


def binned_counts(events: np.ndarray, num_units: int, length_steps: int, gamma: int) -> np.ndarray:
    """Per-unit spike weights summed over windows of ``gamma`` steps."""
    out_len = -(-length_steps // gamma)
    mat = np.zeros((num_units, out_len), dtype=np.int64)
    if events.size:
        np.add.at(mat, (events[:, 0], events[:, 1] // gamma), events[:, 2])
    return mat


def binned_raster_distance(
    baseline_trace: SimulationTrace,
    compressed_trace: SimulationTrace,
    gamma: int,
    layer: str = "reservoir",
) -> float:
    """Normalized L1 distance between gamma-binned baseline spike counts and
    the compressed run's per-step spike weights.

    Zero means the compressed raster reproduces the baseline's windowed
    counts exactly (always true at the input layer by construction of the
    compression). Normalization is by total baseline spike weight.
    """
    n = baseline_trace.layer_size(layer)
    if n != compressed_trace.layer_size(layer):
        raise ValueError(f"{layer}: unit counts differ between traces")
    base = binned_counts(baseline_trace.events_for(layer), n, baseline_trace.timestep_count, gamma)
    comp = binned_counts(compressed_trace.events_for(layer), n, compressed_trace.timestep_count, 1)
    if base.shape[1] != comp.shape[1]:
        raise ValueError(
            f"binned baseline has {base.shape[1]} windows but compressed trace has {comp.shape[1]} steps"
        )
    total = base.sum()
    l1 = np.abs(base - comp).sum()
    if total == 0:
        return 0.0 if l1 == 0 else float("inf")
    return float(l1 / total)


@dataclass(frozen=True)
class AtelInputs:
    """One design's measurements. Runtime and energy may be in any unit as
    long as design and baseline agree (only ratios enter the figure)."""

    lut_count: int
    ff_count: int
    runtime: float
    energy: float
    accuracy: float

    def __post_init__(self):
        if self.lut_count < 0 or self.ff_count < 0:
            raise ValueError("resource counts must be >= 0")
        if not 0.0 <= self.accuracy <= 100.0:
            raise ValueError(f"accuracy must be in [0, 100], got {self.accuracy}")

    @property
    def area(self) -> float:
        return self.ff_count + 2 * self.lut_count

    @property
    def loss(self) -> float:
        return 100.0 - self.accuracy


def atel(design: AtelInputs, baseline: AtelInputs) -> float:
    """Normalized Area x Time x Energy x Loss, in percent of the baseline.

    Area is FF count + 2x LUT count; Loss is 100% minus accuracy. A design
    identical to its baseline scores exactly 100%, and a design with no loss
    scores 0. A baseline with no loss has no normalized figure.
    """
    if baseline.runtime <= 0.0 or baseline.energy <= 0.0 or baseline.area <= 0.0:
        raise ValueError("baseline runtime, energy and area must be positive")
    if baseline.loss == 0.0:
        raise ValueError("normalized ATEL is undefined for a baseline with 100% accuracy (loss 0)")
    return (
        (design.area / baseline.area)
        * (design.runtime / baseline.runtime)
        * (design.energy / baseline.energy)
        * (design.loss / baseline.loss)
        * 100.0
    )


@dataclass
class SpikeStats:
    total_events: int
    total_weight: int
    per_layer_weight: dict
    per_neuron_weight: dict  # layer -> int64 array
    per_neuron_count: dict


def spike_statistics(trace: SimulationTrace) -> SpikeStats:
    """Exact integer tallies of every spike record in a trace."""
    per_w, per_c, layer_w = {}, {}, {}
    total_events = 0
    total_weight = 0
    for layer in ("input", "reservoir", "readout"):
        ev = trace.events_for(layer)
        n = trace.layer_size(layer)
        w = np.zeros(n, dtype=np.int64)
        c = np.zeros(n, dtype=np.int64)
        if ev.size:
            np.add.at(w, ev[:, 0], ev[:, 2])
            np.add.at(c, ev[:, 0], 1)
        per_w[layer] = w
        per_c[layer] = c
        layer_w[layer] = int(w.sum())
        total_events += int(ev.shape[0])
        total_weight += int(w.sum())
    return SpikeStats(
        total_events=total_events,
        total_weight=total_weight,
        per_layer_weight=layer_w,
        per_neuron_weight=per_w,
        per_neuron_count=per_c,
    )


@dataclass
class RunReport:
    """Results of one (network, gamma) experiment, JSON-serializable."""

    gamma: int
    model: str
    seed: int
    accuracy: float
    timestep_count: int
    input_length: int
    speedup: float
    counters: dict
    energy: float
    energy_reduction: float | None = None
    atel_percent: float | None = None
    epochs: int = 0
    no_spike_examples: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())


def write_raster_csv(trace: SimulationTrace, path, layer: str = "reservoir") -> None:
    """Raster export for external plotting: one row per spike event."""
    ev = trace.events_for(layer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("neuron_id,timestep,weight\n")
        for unit, t, w in ev:
            fh.write(f"{int(unit)},{int(t)},{int(w)}\n")
