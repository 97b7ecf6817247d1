"""Configurable fixed-point arithmetic shared by all neuron models.

Values are carried as Python ints (one unit) or int64 numpy arrays holding
``value * 2**frac_bits``. Overflow never wraps: callers pass a
:class:`SaturationCounter` and out-of-range results are clamped and counted.

A clamp site whose values are proven to stay inside the register needs no
check. :func:`saturate` takes that proof as ``fits`` and then returns its
input untouched, so a proven site costs a call, not two reductions. The
engine proves the sites of each non-bursting run from its weights and
compiled constants (:func:`tcsnn.neuron.prove_ranges`), as a hardware
datapath sizes each register from the value range it must hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """Bit layout of a fixed-point register.

    Register values fit in 32 signed bits (31 bits when unsigned), so the
    product of two of them never wraps int64.
    """

    total_bits: int = 32
    frac_bits: int = 16
    signed: bool = True

    def __post_init__(self):
        max_bits = 32 if self.signed else 31
        if not (0 <= self.frac_bits < self.total_bits <= max_bits):
            raise ValueError(
                f"need 0 <= frac_bits < total_bits <= {max_bits}, got "
                f"{self.frac_bits}/{self.total_bits}"
            )
        object.__setattr__(self, "scale", 1 << self.frac_bits)
        if self.signed:
            object.__setattr__(self, "raw_max", (1 << (self.total_bits - 1)) - 1)
            object.__setattr__(self, "raw_min", -(1 << (self.total_bits - 1)))
        else:
            object.__setattr__(self, "raw_max", (1 << self.total_bits) - 1)
            object.__setattr__(self, "raw_min", 0)


DEFAULT_FORMAT = FixedPointFormat(total_bits=32, frac_bits=16, signed=True)


class SaturationCounter:
    """Mutable tally of clamp events; queryable, never silent.

    With ``rows`` it keeps one tally per row of a batched run instead: the
    arrays it is shown carry the row on their first axis, and ``count`` is
    an int64 array with one entry per row.
    """

    __slots__ = ("count",)

    def __init__(self, rows: int | None = None):
        self.count = 0 if rows is None else np.zeros(rows, dtype=np.int64)

    def add(self, n: int):
        if isinstance(self.count, np.ndarray):
            raise TypeError("a per-row counter counts masks, not totals")
        self.count += int(n)

    def add_mask(self, clamped: np.ndarray):
        """Count the True entries of ``clamped``, per row when keeping rows."""
        if np.ndim(self.count):
            self.count += clamped.reshape(len(self.count), -1).sum(axis=1)
        else:
            self.count += int(np.count_nonzero(clamped))

    def __repr__(self):
        return f"SaturationCounter(count={self.count})"


def to_fixed(value, fmt: FixedPointFormat = DEFAULT_FORMAT, counter: SaturationCounter | None = None):
    """Round a real value (or array) to raw fixed-point representation.

    Out-of-range values are clamped, and counted, before the integer cast,
    so no value reaches numpy's undefined float-to-int conversion.
    """
    with np.errstate(over="ignore"):  # a product past float range is inf, clamped below
        scaled = np.rint(np.asarray(value, dtype=np.float64) * fmt.scale)
    clamped = (scaled > fmt.raw_max) | (scaled < fmt.raw_min)
    if counter is not None and clamped.any():
        counter.add_mask(clamped)
    raw = np.clip(scaled, fmt.raw_min, fmt.raw_max).astype(np.int64)
    if np.ndim(value) == 0:
        return int(raw)
    return raw


def fixed_constant(name: str, value: float, fmt: FixedPointFormat = DEFAULT_FORMAT, where: str = "") -> int:
    """A constant of the datapath in raw fixed point; one past the format is an error, not a clamp."""
    clamped = SaturationCounter()
    raw = to_fixed(value, fmt, clamped)
    if clamped.count:
        raise ValueError(f"{name} {value:g}{where} does not fit the {fmt.total_bits}-bit fixed-point format")
    return raw


def saturate(raw, fmt: FixedPointFormat, counter: SaturationCounter | None = None, fits: bool = False):
    """Clamp raw values into the format's range, counting every clamp.

    ``fits`` says the caller has proven every value inside the range: the
    values come back unchecked, and there is nothing to count.
    """
    if fits:
        return raw
    if not isinstance(raw, int):
        if np.ndim(raw):
            if raw.size == 0:
                return raw
            hi = int(raw.max())
            lo = int(raw.min())
            if hi <= fmt.raw_max and lo >= fmt.raw_min:
                return raw
            if counter is not None:
                counter.add_mask((raw > fmt.raw_max) | (raw < fmt.raw_min))
            return np.clip(raw, fmt.raw_min, fmt.raw_max)
        raw = int(raw)
    if raw > fmt.raw_max:
        if counter is not None:
            counter.add(1)
        return fmt.raw_max
    if raw < fmt.raw_min:
        if counter is not None:
            counter.add(1)
        return fmt.raw_min
    return raw


def fixed_product(a, b, fmt: FixedPointFormat = DEFAULT_FORMAT):
    """Unclamped fixed-point product: (a*b) >> frac_bits, floor semantics."""
    if type(a) is not int or type(b) is not int:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) or np.ndim(a) or np.ndim(b):
            prod = np.multiply(a, b, dtype=np.int64)
            prod >>= fmt.frac_bits
            return prod
        a, b = int(a), int(b)
    return (a * b) >> fmt.frac_bits


def fixed_mul(a, b, fmt: FixedPointFormat = DEFAULT_FORMAT, counter: SaturationCounter | None = None):
    """Fixed-point product: (a*b) >> frac_bits, floor semantics, then clamp."""
    return saturate(fixed_product(a, b, fmt), fmt, counter)
