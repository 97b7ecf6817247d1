"""Trace comparison shared by the engine tests."""

import numpy as np


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
