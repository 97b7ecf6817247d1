"""Helpers shared by the tests: Poisson example rows, trace comparison and
fixed-point values read back as floats."""

import numpy as np

from tcsnn.fixedpoint import DEFAULT_FORMAT, FixedPointFormat


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


def from_fixed(raw, fmt: FixedPointFormat = DEFAULT_FORMAT):
    """Raw representation back to float."""
    if np.ndim(raw) == 0:
        return float(raw) / fmt.scale
    return np.asarray(raw, dtype=np.float64) / fmt.scale
