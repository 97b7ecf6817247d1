"""Helpers shared by the engine tests: Poisson input trains and trace comparison."""

import numpy as np

from tcsnn.spike import BinarySpikeTrain


def poisson_encode(rates, length_steps: int, seed: int) -> list[BinarySpikeTrain]:
    """Encode per-channel rates as independent Bernoulli(rate) processes.

    Rates are expected spikes per timestep, each in [0, 1]. The same
    (rates, length_steps, seed) triple always produces identical trains.
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
    fired = draws < rates[:, None]
    return [
        BinarySpikeTrain(channel_id=ch, events=np.flatnonzero(fired[ch]), length_steps=length_steps)
        for ch in range(rates.size)
    ]


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
