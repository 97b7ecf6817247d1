"""Helpers shared by the tests: Poisson example rows, trace comparison, real
values to raw fixed point (clamped) and back, the reference shifter decay,
the reference bursting amplitudes and the projections a reservoir run makes."""

from unittest import mock

import numpy as np

import tcsnn.network as network
from tcsnn.fixedpoint import RAW_MAX, RAW_MIN, SCALE
from tcsnn.network import _Projection, run_reservoir
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


def to_fixed(value):
    """Round a real value (or array) to raw fixed point, clamped into the register.

    Out-of-range values are clamped before the integer cast, so no value
    past the register reaches numpy's undefined float-to-int conversion.
    The package itself takes a real value only through
    :func:`tcsnn.fixedpoint.fixed_constant`, which refuses one out of range.
    """
    with np.errstate(over="ignore"):  # a product past float range is inf, clamped below
        scaled = np.rint(np.asarray(value, dtype=np.float64) * SCALE)
    raw = np.clip(scaled, RAW_MIN, RAW_MAX).astype(np.int64)
    if np.ndim(value) == 0:
        return int(raw)
    return raw


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


def reservoir_projections(net, example, gamma: int) -> list:
    """The :class:`~tcsnn.network._Projection` objects one reservoir run of ``example`` builds, in order."""
    made = []

    def spy(*args):
        made.append(_Projection(*args))
        return made[-1]

    with mock.patch.object(network, "_Projection", spy):
        run_reservoir(net, [example], gamma)
    return made
