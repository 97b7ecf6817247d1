"""Input spike compression and shifter-scheduled time constants.

A compression ratio ``gamma`` merges each window of gamma binary timesteps
into one weighted timestep: a window sum over a dense count array with time
on its last axis. :func:`plan_time_constant` scales a first-order decay
``x <- x * (1 - 1/tau)`` by gamma exactly, so one compressed step decays as
much as gamma raw ones, and keeps it shifter-realizable by toggling between
the two powers of two bounding the scaled constant so their arithmetic mean
equals it. Each :class:`TimeConstantPlan` caches its own shift schedule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fixedpoint import TOTAL_BITS

__all__ = ["TimeConstantPlan", "compress_train", "plan_time_constant"]


def compress_train(spikes: np.ndarray, gamma: int) -> np.ndarray:
    """Merge each window of ``gamma`` steps into one weighted spike.

    ``spikes`` holds spike counts with time on its last axis. Compressed
    step j carries the count of original steps [j*gamma, (j+1)*gamma), so
    the result is ceil(steps/gamma) long and conserves every row's total.
    gamma = 1 returns ``spikes`` itself. Other ratios add the gamma columns
    of a zero-padded (windows, gamma) reshape into int64 counts, which costs
    less than numpy's reduction over a short last axis.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if gamma == 1:
        return spikes
    *rows, steps = spikes.shape
    windows = -(-steps // gamma)
    padded = np.zeros((*rows, windows, gamma), dtype=spikes.dtype)
    padded.reshape(*rows, -1)[..., :steps] = spikes
    counts = padded[..., 0].astype(np.int64)
    for offset in range(1, gamma):
        counts += padded[..., offset]
    return counts


@dataclass(frozen=True)
class TimeConstantPlan:
    """A scaled time constant and the shifter schedule realizing it.

    Made by :func:`plan_time_constant`. The schedule deterministically
    chooses shift k_low or k_high each step via a running error accumulator;
    over any whole period the arithmetic mean of the chosen constants 2**k
    equals ``tau_nom_c_exact``. k_low == k_high when that is a power of two.
    """

    tau_nom_c_exact: float
    k_low: int
    k_high: int

    # keyed on (plan, n_steps): equal plans share one schedule across networks and learners
    @functools.lru_cache(maxsize=512)
    def shifts(self, n_steps: int) -> np.ndarray:
        """Shift amount (k) for each of the next n_steps, from phase zero.

        The array is cached and shared by every caller, so it is read-only.
        """
        out = np.full(n_steps, self.k_low, dtype=np.int64)
        if self.k_high != self.k_low:
            lo = float(1 << self.k_low)
            span = float(1 << self.k_high) - lo
            acc = 0.0
            for i in range(n_steps):
                acc += self.tau_nom_c_exact - lo
                if acc >= span:
                    out[i] = self.k_high
                    acc -= span
        out.setflags(write=False)
        return out


def plan_time_constant(tau_nom: float, gamma: int) -> TimeConstantPlan:
    """Scale ``tau_nom`` by ``gamma`` exactly and schedule the result.

    The scaled constant solves (1 - 1/tau_c) = (1 - 1/tau_nom)**gamma, so one
    compressed decay step equals gamma uncompressed ones; gamma == 1 keeps
    tau_nom exactly, so baseline schedules are unchanged. The schedule
    toggles between the bounding powers 2**k_low <= tau_c <= 2**k_high, with
    k_high = k_low + 1 unless tau_c is a power of two. A shift past
    ``TOTAL_BITS - 1`` bits, more than the register it decays holds, is
    rejected.
    """
    if not 1.0 < tau_nom < math.inf:
        raise ValueError(f"tau_nom must exceed 1 and be finite, got {tau_nom}")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    tau_c = float(tau_nom)
    if gamma > 1:
        decay = (1.0 - 1.0 / tau_nom) ** gamma
        if decay == 1.0:
            raise ValueError(f"time constant {tau_nom:g} is too long to scale by gamma {gamma}: its decay rounds to 1")
        tau_c = 1.0 / (1.0 - decay)
    mant, exp = math.frexp(tau_c)  # tau_c = mant * 2**exp, mant in [0.5, 1)
    k_high = exp - 1 if mant == 0.5 else exp
    if k_high > TOTAL_BITS - 1:
        raise ValueError(
            f"time constant {tau_nom:g} needs a {k_high}-bit shift at gamma {gamma}, past {TOTAL_BITS - 1} bits"
        )
    return TimeConstantPlan(tau_nom_c_exact=tau_c, k_low=exp - 1, k_high=k_high)
