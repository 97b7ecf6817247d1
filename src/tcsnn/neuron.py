"""Fixed-point spiking neuron models: one integrate-fire-reset core.

Every model is a row of :data:`MODELS`, three switches on one datapath:

- weighted in: the synaptic drive scales with input spike weights
  (``iw-lif``, ``iow-lif``, ``iow-burst-lif``); otherwise a spike counts 1.
- weighted out: a unit emits the number of thresholds its potential
  crossed, capped at ``n_max`` (``iow-lif``, ``iow-burst-lif``). The other
  models are compiled with a cap of 1, so they fire once.
- bursting: the threshold is g*u_th, where a unit's burst gain g is scaled
  by beta**w after it emits a weight-w spike and reset to 1 after a silent
  step (``burst-lif``, ``iow-burst-lif``).

:func:`integrate_fire` is that core for a whole population (int64 arrays of
raw fixed-point values), a pure transition: state in, state out, no globals.
Membrane and synapse decays are shifter steps driven by per-step shift
amounts taken from a :class:`~tcsnn.compress.TimeConstantPlan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compress import TimeConstantPlan, decay_step, plan_time_constant
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat, SaturationCounter, fixed_mul, saturate, to_fixed

__all__ = [
    "MODELS",
    "ModelSpec",
    "SynapseParams",
    "LIFParams",
    "BurstParams",
    "NeuronState",
    "CompiledNeuron",
    "new_neuron_state",
    "compile_neuron",
    "synapse_step",
    "burst_gain_update",
    "integrate_fire",
]


class ModelSpec(NamedTuple):
    weighted_in: bool
    weighted_out: bool
    bursting: bool


MODELS = {
    "lif": ModelSpec(weighted_in=False, weighted_out=False, bursting=False),
    "iw-lif": ModelSpec(weighted_in=True, weighted_out=False, bursting=False),
    "iow-lif": ModelSpec(weighted_in=True, weighted_out=True, bursting=False),
    "burst-lif": ModelSpec(weighted_in=False, weighted_out=False, bursting=True),
    "iow-burst-lif": ModelSpec(weighted_in=True, weighted_out=True, bursting=True),
}


@dataclass(frozen=True)
class SynapseParams:
    """Synaptic current filter: zeroth (instant), first, or second order."""

    order: str = "second"
    tau_s1_nom: float = 4.0  # rise stage
    tau_s2_nom: float = 8.0  # decay stage
    q: float = 1.0

    def __post_init__(self):
        if self.order not in ("zeroth", "first", "second"):
            raise ValueError(f"unknown synapse order {self.order!r}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        if self.order == "first" and self.tau_s1_nom <= 1.0:
            raise ValueError("first order needs tau_s1_nom > 1")
        if self.order == "second":
            if self.tau_s1_nom <= 1.0 or self.tau_s2_nom <= 1.0:
                raise ValueError("second order needs both time constants > 1")
            if self.tau_s1_nom == self.tau_s2_nom:
                raise ValueError("second order needs tau_s1_nom != tau_s2_nom")


@dataclass(frozen=True)
class LIFParams:
    """Membrane parameters. tau_m_nom=inf selects a leakless integrator
    (no decay, drive gain R) used for exact spike-mass accounting."""

    tau_m_nom: float = 32.0
    u_th: float = 1.0
    R: float = 1.0
    n_max: int = 7
    synapse: SynapseParams = field(default_factory=SynapseParams)

    def __post_init__(self):
        if not self.tau_m_nom > 1.0:
            raise ValueError("tau_m_nom must exceed 1")
        if not 0.0 < self.u_th < math.inf:
            raise ValueError("u_th must be positive and finite")
        if not math.isfinite(self.R):
            raise ValueError("R must be finite")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def leakless(self) -> bool:
        return math.isinf(self.tau_m_nom)


@dataclass(frozen=True)
class BurstParams:
    """Burst function constant; the threshold set it scales is the
    membrane's own (``LIFParams.u_th`` and ``n_max``)."""

    beta: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")


@dataclass
class NeuronState:
    """Per-population state arrays (raw fixed-point int64).

    ``g`` holds each unit's own burst value; it doubles as the
    per-presynaptic-channel value seen by downstream neurons because the
    burst function depends only on the source's firing history. ``prev_out``
    carries the previous step's output weights (the E flags plus the weight
    that drives the beta**weight update).
    """

    u: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    g: np.ndarray | None = None
    prev_out: np.ndarray | None = None


def new_neuron_state(n: int, fmt: FixedPointFormat = DEFAULT_FORMAT, bursting: bool = False) -> NeuronState:
    zeros = lambda: np.zeros(n, dtype=np.int64)  # noqa: E731
    return NeuronState(
        u=zeros(),
        s1=zeros(),
        s2=zeros(),
        g=np.full(n, fmt.scale, dtype=np.int64) if bursting else None,
        prev_out=zeros() if bursting else None,
    )


@dataclass(frozen=True)
class CompiledNeuron:
    """All per-(params, gamma) constants precomputed in fixed point."""

    model: str
    lif: LIFParams
    gamma: int
    fmt: FixedPointFormat
    u_th_fp: int
    gain_fp: int  # membrane drive gain: R/tau_m_c, or R when leakless
    q_fp: int
    syn_gain_fp: int  # second-order output normalization (unit impulse peak ~ q)
    n_max: int  # output cap: lif.n_max for weighted-output models, else 1
    spec: ModelSpec
    tau_m_plan: TimeConstantPlan | None
    tau_s1_plan: TimeConstantPlan | None
    tau_s2_plan: TimeConstantPlan | None
    beta_pow_fp: np.ndarray | None = None  # LUT: fp(beta**k)


def _second_order_peak(tau_rise_c: float, tau_decay_c: float) -> float:
    """Peak of the discrete impulse response a_d**t - a_r**t over t >= 0."""
    a_r = 1.0 - 1.0 / tau_rise_c
    a_d = 1.0 - 1.0 / tau_decay_c
    best = 0.0
    v_r, v_d = 1.0, 1.0
    for _ in range(100000):
        v_r *= a_r
        v_d *= a_d
        cur = abs(v_d - v_r)
        if cur > best:
            best = cur
        elif v_d + v_r < best:  # both branches below the peak: done
            break
    if best <= 0.0:
        raise ValueError("degenerate second-order response")
    return best


def compile_neuron(
    model: str,
    lif: LIFParams,
    gamma: int,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
    burst: BurstParams | None = None,
    beta_pow_max: int = 16,
) -> CompiledNeuron:
    """Precompute fixed-point gains and decay schedules for one ratio."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    spec = MODELS[model]
    if spec.bursting:
        if burst is None:
            raise ValueError(f"{model} requires BurstParams")
        if lif.synapse.order != "zeroth":
            raise ValueError("bursting models require a zeroth-order synapse")

    syn = lif.synapse
    if lif.leakless:
        tau_m_plan = None
        gain = lif.R
    else:
        tau_m_plan = plan_time_constant(lif.tau_m_nom, gamma)
        gain = lif.R / tau_m_plan.tau_nom_c_exact

    tau_s1_plan = tau_s2_plan = None
    syn_gain_fp = 0
    if syn.order in ("first", "second"):
        tau_s1_plan = plan_time_constant(syn.tau_s1_nom, gamma)
    if syn.order == "second":
        tau_s2_plan = plan_time_constant(syn.tau_s2_nom, gamma)
        peak = _second_order_peak(tau_s1_plan.tau_nom_c_exact, tau_s2_plan.tau_nom_c_exact)
        syn_gain_fp = to_fixed(syn.q / peak, fmt)

    beta_pow_fp = None
    if spec.bursting:
        ks = np.arange(max(lif.n_max, beta_pow_max) + 1)
        beta_pow_fp = np.array([to_fixed(burst.beta**int(k), fmt) for k in ks], dtype=np.int64)

    return CompiledNeuron(
        model=model,
        lif=lif,
        gamma=gamma,
        fmt=fmt,
        u_th_fp=to_fixed(lif.u_th, fmt),
        gain_fp=to_fixed(gain, fmt),
        q_fp=to_fixed(syn.q, fmt),
        syn_gain_fp=syn_gain_fp,
        n_max=lif.n_max if spec.weighted_out else 1,
        spec=spec,
        tau_m_plan=tau_m_plan,
        tau_s1_plan=tau_s1_plan,
        tau_s2_plan=tau_s2_plan,
        beta_pow_fp=beta_pow_fp,
    )


def synapse_step(
    state: NeuronState,
    drive_fp: np.ndarray,
    comp: CompiledNeuron,
    k_s1: int = 0,
    k_s2: int = 0,
    sat: SaturationCounter | None = None,
) -> np.ndarray:
    """Advance the synaptic filter one step and return the current I.

    ``drive_fp`` is the weight-multiplied input sum per neuron (raw fixed
    point). Zeroth order passes it through; first order is a decaying
    accumulator scaled by q; second order subtracts a fast rise stage from a
    slow decay stage, normalized so a unit impulse peaks near q.
    """
    order = comp.lif.synapse.order
    fmt = comp.fmt
    if order == "zeroth":
        return drive_fp
    if order == "first":
        state.s1 = saturate(decay_step(state.s1, k_s1) + fixed_mul(comp.q_fp, drive_fp, fmt, sat), fmt, sat)
        return state.s1
    state.s1 = saturate(decay_step(state.s1, k_s1) + drive_fp, fmt, sat)
    state.s2 = saturate(decay_step(state.s2, k_s2) + drive_fp, fmt, sat)
    return fixed_mul(comp.syn_gain_fp, state.s2 - state.s1, fmt, sat)


def burst_gain_update(
    g: np.ndarray, prev_out: np.ndarray, comp: CompiledNeuron, sat: SaturationCounter | None = None
) -> np.ndarray:
    """One burst-gain step for a population of spike sources.

    A source that emitted a weight-w spike last step scales its gain by
    beta**w; a silent one resets to 1. The product is a fixed-point
    multiply, so a gain past the register range is clamped and counted.
    """
    lut = comp.beta_pow_fp
    scaled = fixed_mul(g, lut[np.minimum(prev_out, len(lut) - 1)], comp.fmt, sat)
    return np.where(prev_out > 0, scaled, np.int64(comp.fmt.scale))


def integrate_fire(
    state: NeuronState,
    i_fp: np.ndarray,
    comp: CompiledNeuron,
    k_m: int = 0,
    sat: SaturationCounter | None = None,
) -> np.ndarray:
    """One step of the shared core: decay, integrate, fire, soft reset.

    With k*thr <= u < (k+1)*thr the output weight is k, capped at n_max, and
    the reset subtracts k*thr; above n_max*thr the residual may exceed thr
    and fires again next step. The threshold thr is u_th or, for bursting
    models, g*u_th (at least one LSB) after g is updated from the unit's
    previous output.
    """
    fmt = comp.fmt
    thr = comp.u_th_fp
    bursting = comp.spec.bursting
    if bursting:
        state.g = burst_gain_update(state.g, state.prev_out, comp, sat)
        thr = np.maximum(fixed_mul(comp.u_th_fp, state.g, fmt, sat), 1)
    decayed = state.u if comp.lif.leakless else decay_step(state.u, k_m)
    state.u = saturate(decayed + fixed_mul(comp.gain_fp, i_fp, fmt, sat), fmt, sat)
    out = np.minimum(np.maximum(state.u // thr, 0), comp.n_max)
    state.u -= out * thr
    if bursting:
        state.prev_out = out
    return out


# one entry per model, all the same core; the engine looks its model up per run
STEP_FUNCTIONS = {model: integrate_fire for model in MODELS}
