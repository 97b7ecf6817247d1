"""Fixed-point arithmetic shared by all neuron models.

Every register of the datapath has one format: 32 signed bits, of which
:data:`FRAC_BITS` (16) are fractional. A constant is a Python int and the
datapath's values are int64 numpy arrays, each holding ``value *
2**FRAC_BITS``. A real value enters only through :func:`fixed_constant`,
which refuses one the register cannot hold. Overflow never wraps: results
out of range are clamped and counted, per row, in the caller's int64 array.

A clamp site whose values are proven to stay inside the register needs no
check. :func:`saturate` takes that proof as ``fits`` and then returns its
input untouched, so a proven site costs a call, not two reductions. The
engine proves the sites of each non-bursting run from its weights and
compiled constants (:func:`tcsnn.neuron.prove_ranges`), as a hardware
datapath sizes each register from the value range it must hold.
"""

from __future__ import annotations

import numpy as np

# The register: 32 signed bits, 16 of them fractional. At 32 signed bits the
# product of two register values stays inside int64, which the engine's int64
# products and its range analysis rely on.
TOTAL_BITS = 32
FRAC_BITS = 16
SCALE = 1 << FRAC_BITS
RAW_MAX = (1 << (TOTAL_BITS - 1)) - 1
RAW_MIN = -(1 << (TOTAL_BITS - 1))


def fixed_constant(name: str, value: float, where: str = "") -> int:
    """A constant of the datapath in raw fixed point; one past the format, or NaN, is an error, not a clamp."""
    scaled = np.rint(float(value) * SCALE)  # a Python float product past float range is inf, silently
    if not RAW_MIN <= scaled <= RAW_MAX:
        raise ValueError(f"{name} {value:g}{where} does not fit the {TOTAL_BITS}-bit fixed-point format")
    return int(scaled)


def saturate(raw: np.ndarray, counter: np.ndarray | None = None, fits: bool = False) -> np.ndarray:
    """Clamp an array of raw values into the register's range, counting every clamp.

    Each row of ``raw`` (its first axis) adds its clamps to its entry of
    ``counter``. ``fits`` says the caller has proven every value inside the
    range: the values come back unchecked, and there is nothing to count.
    """
    if fits or raw.size == 0:
        return raw
    if int(raw.max()) <= RAW_MAX and int(raw.min()) >= RAW_MIN:
        return raw
    if counter is not None:
        counter += ((raw > RAW_MAX) | (raw < RAW_MIN)).reshape(len(counter), -1).sum(axis=1)
    return np.clip(raw, RAW_MIN, RAW_MAX)


def fixed_mul(a, b, counter: np.ndarray | None = None):
    """Fixed-point product: (a*b) >> FRAC_BITS, floor semantics, then clamp."""
    return saturate((a * b) >> FRAC_BITS, counter)
