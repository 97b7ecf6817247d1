"""Fixed-point arithmetic shared by all neuron models.

Every register of the datapath has one format: 32 signed bits, of which
:data:`FRAC_BITS` (16) are fractional. A constant is a Python int and the
datapath's values are int64 numpy arrays, each holding ``value *
2**FRAC_BITS``. Overflow never wraps: callers pass a
:class:`SaturationCounter` and out-of-range results are clamped and counted.

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


class SaturationCounter:
    """Mutable tally of clamp events, one per row of a batched run; queryable, never silent.

    The arrays it is shown carry the row on their first axis, and ``count``
    is an int64 array with one entry per row.
    """

    __slots__ = ("count",)

    def __init__(self, rows: int):
        self.count = np.zeros(rows, dtype=np.int64)

    def add_mask(self, clamped: np.ndarray):
        """Count the True entries of ``clamped``, per row."""
        self.count += clamped.reshape(len(self.count), -1).sum(axis=1)

    def __repr__(self):
        return f"SaturationCounter(count={self.count})"


def to_fixed(value):
    """Round a real value (or array) to raw fixed-point representation.

    Out-of-range values are clamped before the integer cast, so no value
    past the register reaches numpy's undefined float-to-int conversion.
    """
    with np.errstate(over="ignore"):  # a product past float range is inf, clamped below
        scaled = np.rint(np.asarray(value, dtype=np.float64) * SCALE)
    raw = np.clip(scaled, RAW_MIN, RAW_MAX).astype(np.int64)
    if np.ndim(value) == 0:
        return int(raw)
    return raw


def fixed_constant(name: str, value: float, where: str = "") -> int:
    """A constant of the datapath in raw fixed point; one past the format, or NaN, is an error, not a clamp."""
    scaled = np.rint(float(value) * SCALE)  # a Python float product past float range is inf, silently
    if not RAW_MIN <= scaled <= RAW_MAX:
        raise ValueError(f"{name} {value:g}{where} does not fit the {TOTAL_BITS}-bit fixed-point format")
    return int(scaled)


def saturate(raw: np.ndarray, counter: SaturationCounter | None = None, fits: bool = False) -> np.ndarray:
    """Clamp an array of raw values into the register's range, counting every clamp.

    ``fits`` says the caller has proven every value inside the range: the
    values come back unchecked, and there is nothing to count.
    """
    if fits or raw.size == 0:
        return raw
    if int(raw.max()) <= RAW_MAX and int(raw.min()) >= RAW_MIN:
        return raw
    if counter is not None:
        counter.add_mask((raw > RAW_MAX) | (raw < RAW_MIN))
    return np.clip(raw, RAW_MIN, RAW_MAX)


def fixed_mul(a, b, counter: SaturationCounter | None = None):
    """Fixed-point product: (a*b) >> FRAC_BITS, floor semantics, then clamp."""
    return saturate((a * b) >> FRAC_BITS, counter)
