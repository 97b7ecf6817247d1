"""Helpers shared by the tests: Poisson example rows, trace comparison,
fixed-point values read back as floats, the reference shifter decay and the
reference bursting amplitudes."""

import numpy as np

from tcsnn.fixedpoint import SCALE
from tcsnn.neuron import burst_gain_update


def poisson_encode(rates, length_steps: int, seed: int) -> np.ndarray:
    """Encode per-channel rates as independent Bernoulli(rate) processes.

    Rates are expected spikes per timestep, each in [0, 1]. Returns an
    example row, a boolean ``(channels, length_steps)`` array. The same
    (rates, length_steps, seed) triple always produces the same row.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1:
        raise ValueError("rates must be a 1-d per-channel sequence")
    if (rates < 0.0).any() or (rates > 1.0).any():
        raise ValueError("rates must lie in [0, 1]")
    if length_steps < 1:
        raise ValueError("length_steps must be >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.random((rates.size, length_steps))
    return draws < rates[:, None]


def same_trace(a, b, check_potentials: bool = True) -> bool:
    """Bit-exact comparison of spikes (and potentials when both recorded them)."""
    if a.timestep_count != b.timestep_count:
        return False
    for layer in ("input", "reservoir", "readout"):
        if not np.array_equal(a.events_for(layer), b.events_for(layer)):
            return False
    if check_potentials and a.potentials is not None and b.potentials is not None:
        for key in a.potentials:
            if not np.array_equal(a.potentials[key], b.potentials[key]):
                return False
    return True


def from_fixed(raw):
    """Raw representation back to float."""
    if np.ndim(raw) == 0:
        return float(raw) / SCALE
    return np.asarray(raw, dtype=np.float64) / SCALE


def decay_step(x, k: int):
    """One shifter decay: x - (x >> k), i.e. x*(1 - 2**-k) with truncation.

    Works on Python ints and int64 arrays (arithmetic shift either way).
    k = 0 decays to zero in one step (tau = 1). Positive values stall once
    x >> k truncates to zero, so homogeneous decay bottoms out within
    2**k - 1 raw units of zero rather than at exactly zero. The engine
    writes this decay inline in its step functions.
    """
    if k < 0:
        raise ValueError("shift amount must be >= 0")
    return x - (x >> k)


def replayed_amplitudes(spikes, comp):
    """The reference amplitudes of a bursting pass, replayed from its ``(steps, neurons)`` spikes.

    Each spike's amplitude is its weight times its neuron's burst gain,
    which scales by beta**w after a weight-w spike and resets to 1 after a
    silent step, as the reservoir steps it. They come in
    ``np.nonzero(spikes)`` order, as a pass records them.
    """
    gain = np.full(spikes.shape[1], SCALE, dtype=np.int64)
    prev = np.zeros_like(gain)
    amplitudes = [np.zeros(0, dtype=np.int64)]  # a start, so that a pass of no steps has none
    for out in spikes.astype(np.int64):
        gain = burst_gain_update(gain, prev, comp)
        amplitudes.append((gain * out)[out > 0])
        prev = out
    return np.concatenate(amplitudes)
