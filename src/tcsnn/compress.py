"""Input spike compression, exact time-constant scaling, and shifter-friendly
time-averaged schedules for non-power-of-two constants.

A compression ratio ``gamma`` merges each window of gamma binary timesteps
into one weighted timestep: a window sum over a dense count array with time
on its last axis. First-order decays ``x <- x * (1 - 1/tau)`` stay
shifter-realizable after compression by toggling between the two powers of
two bounding the scaled constant so their arithmetic mean equals it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeConstantPlan",
    "compress_train",
    "scale_time_constant",
    "make_schedule",
    "plan_time_constant",
    "decay_step",
]


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


def scale_time_constant(tau_nom: float, gamma: int) -> float:
    """Exact normalized time constant after compressing by ``gamma``.

    Solves (1 - 1/tau_c) = (1 - 1/tau_nom)**gamma, so one compressed decay
    step equals gamma uncompressed ones. gamma == 1 returns tau_nom
    unchanged (exact identity, so schedules are bit-identical to baseline).
    """
    if not 1.0 < tau_nom < math.inf:
        raise ValueError(f"tau_nom must exceed 1 and be finite, got {tau_nom}")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if gamma == 1:
        return float(tau_nom)
    decay = (1.0 - 1.0 / tau_nom) ** gamma
    if decay == 1.0:
        raise ValueError(f"time constant {tau_nom:g} is too long to scale by gamma {gamma}: its decay rounds to 1")
    return 1.0 / (1.0 - decay)


def decay_step(x, k: int):
    """One shifter decay: x - (x >> k), i.e. x*(1 - 2**-k) with truncation.

    Works on Python ints and int64 arrays (arithmetic shift either way).
    k = 0 decays to zero in one step (tau = 1). Positive values stall once
    x >> k truncates to zero, so homogeneous decay bottoms out within
    2**k - 1 raw units of zero rather than at exactly zero.
    """
    if k < 0:
        raise ValueError("shift amount must be >= 0")
    return x - (x >> k)


@dataclass(frozen=True)
class TimeConstantPlan:
    """A scaled time constant and the shifter schedule realizing it.

    The schedule deterministically chooses shift k_low or k_high each step
    via a running error accumulator; over any whole period the arithmetic
    mean of the chosen constants 2**k equals ``tau_nom_c_exact``.
    """

    tau_nom: float
    gamma: int
    tau_nom_c_exact: float
    k_low: int
    k_high: int

    @property
    def is_constant(self) -> bool:
        return self.k_low == self.k_high

    def shifts(self, n_steps: int) -> np.ndarray:
        """Shift amount (k) for each of the next n_steps, from phase zero."""
        if self.is_constant:
            return np.full(n_steps, self.k_low, dtype=np.int64)
        lo = float(1 << self.k_low)
        hi = float(1 << self.k_high)
        target = self.tau_nom_c_exact
        out = np.empty(n_steps, dtype=np.int64)
        acc = 0.0
        for i in range(n_steps):
            acc += target - lo
            if acc >= hi - lo:
                out[i] = self.k_high
                acc -= hi - lo
            else:
                out[i] = self.k_low
        return out


def make_schedule(tau_target: float, tau_nom: float | None = None, gamma: int = 1) -> TimeConstantPlan:
    """Build the toggling schedule realizing ``tau_target`` as a time average.

    Exact powers of two give a constant schedule; otherwise the plan toggles
    between the bounding powers 2**k_low <= tau_target <= 2**k_high with
    k_high = k_low + 1.
    """
    if tau_target < 1.0:
        raise ValueError(f"tau_target must be >= 1, got {tau_target}")
    mant, exp = math.frexp(tau_target)  # tau = mant * 2**exp, mant in [0.5, 1)
    if mant == 0.5:  # exact power of two
        k = exp - 1
        k_low = k_high = k
    else:
        k_low = exp - 1
        k_high = exp
    return TimeConstantPlan(
        tau_nom=float(tau_target if tau_nom is None else tau_nom),
        gamma=gamma,
        tau_nom_c_exact=float(tau_target),
        k_low=k_low,
        k_high=k_high,
    )


def plan_time_constant(tau_nom: float, gamma: int, max_shift: int | None = None) -> TimeConstantPlan:
    """Scale ``tau_nom`` by ``gamma`` exactly and schedule the result.

    A schedule that needs a shift past ``max_shift`` bits, more than the
    register it decays holds, is rejected.
    """
    plan = make_schedule(scale_time_constant(tau_nom, gamma), tau_nom=tau_nom, gamma=gamma)
    if max_shift is not None and plan.k_high > max_shift:
        raise ValueError(
            f"time constant {tau_nom:g} needs a {plan.k_high}-bit shift at gamma {gamma}, past {max_shift} bits"
        )
    return plan
