"""Fixed-point spiking neuron models: one integrate-fire-reset core.

A :class:`LIFParams` is one whole neuron, its model and all its constants.
Every model is a row of :data:`MODELS`, three switches on one datapath:

- weighted in: the synaptic drive scales with input spike weights
  (``iw-lif``, ``iow-lif``, ``iow-burst-lif``); otherwise a spike counts 1.
- weighted out: a unit emits the number of thresholds its potential
  crossed, capped at ``n_max`` (``iow-lif``, ``iow-burst-lif``). The other
  models are compiled with a cap of 1, so they fire once.
- bursting: the threshold is g*u_th, where a unit's burst gain g is scaled
  by beta**w after it emits a weight-w spike and reset to 1 after a silent
  step (``burst-lif``, ``iow-burst-lif``).

:func:`integrate_fire` is that core for a population of units held as int64
arrays of raw fixed-point values: it steps the state's arrays in place,
writes into no array it is handed and reads no globals. :func:`synapse_step`
filters the drive ahead of it and :func:`burst_gain_update` steps the burst
gains. These functions run every frozen batch: the reservoir, and the
readout over a test split. A learning readout steps its few units on Python
ints instead, in a loop of its own (:func:`tcsnn.network._learning_readout`)
that writes this datapath out per unit, since at a handful of units any
call costs more than the arithmetic.
The two forms share no code; the tests hold their runs equal.
Membrane and synapse decays are shifter steps ``x - (x >> k)`` driven by
per-step shift amounts taken from a :class:`~tcsnn.compress.TimeConstantPlan`.
A fixed-point product ``(a * b) >> FRAC_BITS`` is shifted in place.

Every register of the datapath saturates. :func:`site_ranges` bounds the
values at each clamp site of a non-bursting run, from the compiled
constants and a bound on the layer's drive: the synaptic states ``s1`` and
``s2``, the synaptic product, the membrane gain product and the membrane.
A decay ``x <- x - (x >> k) + d`` with ``d`` in ``[d_lo, d_hi]`` (which
holds 0) and ``k <= k_high`` keeps ``x`` in ``2**k_high * [d_lo, d_hi]``
once it starts there, and a spike's reset only moves the membrane toward
zero, so these intervals hold at every step. :func:`prove_ranges` marks
each site whose interval fits its register; that site skips its check,
as it can never clamp.

Bursting is not proven: a unit's burst gain grows by beta**w after each
spike and is limited only by its own register, so its threshold, and with
it the membrane and every delivered amplitude, has no bound below the
register's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compress import TimeConstantPlan, plan_time_constant
from .fixedpoint import FRAC_BITS, RAW_MAX, RAW_MIN, SCALE, TOTAL_BITS, fixed_constant, fixed_mul, saturate

__all__ = [
    "MODELS",
    "ModelSpec",
    "SynapseParams",
    "LIFParams",
    "NeuronState",
    "CompiledNeuron",
    "new_neuron_state",
    "compile_neuron",
    "Fits",
    "NO_PROOF",
    "site_ranges",
    "prove_ranges",
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
        if self.order == "first" and not 1.0 < self.tau_s1_nom < math.inf:
            raise ValueError("first order needs a finite tau_s1_nom > 1")
        if self.order == "second":
            if not (1.0 < self.tau_s1_nom < math.inf and 1.0 < self.tau_s2_nom < math.inf):
                raise ValueError("second order needs both time constants finite and > 1")
            if self.tau_s1_nom == self.tau_s2_nom:
                raise ValueError("second order needs tau_s1_nom != tau_s2_nom")


@dataclass(frozen=True)
class LIFParams:
    """One whole neuron: its model (a row of :data:`MODELS`), membrane, synapse and burst constant beta.
    tau_m_nom=inf selects a leakless integrator (no decay, drive gain R) used for exact spike-mass accounting."""

    model: str = "iow-lif"
    tau_m_nom: float = 32.0
    u_th: float = 1.0
    R: float = 1.0
    n_max: int = 7
    beta: float = 1.5
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
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r} (choose from {', '.join(MODELS)})")
        if MODELS[self.model].bursting and self.synapse.order != "zeroth":
            raise ValueError("bursting models require a zeroth-order synapse")

    @property
    def leakless(self) -> bool:
        return math.isinf(self.tau_m_nom)


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


def new_neuron_state(n: int | tuple, bursting: bool = False) -> NeuronState:
    """The resting state of ``n`` units, a count or an array shape."""
    zeros = lambda: np.zeros(n, dtype=np.int64)  # noqa: E731
    return NeuronState(
        u=zeros(),
        s1=zeros(),
        s2=zeros(),
        g=np.full(n, SCALE, dtype=np.int64) if bursting else None,
        prev_out=zeros() if bursting else None,
    )


@dataclass(frozen=True)
class CompiledNeuron:
    """All per-(params, gamma) constants precomputed in fixed point."""

    lif: LIFParams
    gamma: int
    u_th_fp: int
    gain_fp: int  # membrane drive gain: R/tau_m_c, or R when leakless
    q_fp: int
    syn_gain_fp: int  # second-order output normalization (unit impulse peak ~ q)
    n_max: int  # output cap: lif.n_max for weighted-output models, else 1
    spec: ModelSpec
    tau_m_plan: TimeConstantPlan | None
    tau_s1_plan: TimeConstantPlan | None
    tau_s2_plan: TimeConstantPlan | None
    beta_pow_fp: np.ndarray | None = None  # LUT: fp(beta**k), up to the first entry that reaches its limit


def _second_order_peak(tau_rise_c: float, tau_decay_c: float) -> float:
    """Peak of the discrete impulse response |a_d**t - a_r**t| over t >= 1.

    The continuous response a_d**t - a_r**t rises to its one extremum at
    t* = ln(ln a_r / ln a_d) / ln(a_d / a_r) and falls after it, so the
    discrete peak is at floor(t*) or ceil(t*), however slow the synapse.
    """
    a_r = 1.0 - 1.0 / tau_rise_c
    a_d = 1.0 - 1.0 / tau_decay_c
    steps = {1}
    if a_r > 0.0 and a_d > 0.0 and a_r != a_d:
        t_star = math.log(math.log(a_r) / math.log(a_d)) / math.log(a_d / a_r)
        steps |= {max(1, math.floor(t_star)), max(1, math.ceil(t_star))}
    best = max(abs(a_d**t - a_r**t) for t in steps)
    if best <= 0.0:
        raise ValueError("degenerate second-order response")
    return best


@functools.lru_cache(maxsize=64)
def compile_neuron(lif: LIFParams, gamma: int) -> CompiledNeuron:
    """Precompute fixed-point gains and decay schedules for one ratio.

    Equal parameters at one ratio share one cached result, whose arrays are read-only.
    The beta**k table covers every spike weight a bursting source can emit
    at ``gamma``: up to n_max from a neuron, up to gamma from an input channel.
    It ends at its first entry that reaches its limit, as every later entry
    equals that one and a lookup past the end takes the last entry.
    A constant the datapath cannot hold is rejected: a threshold, gain or q
    past the register, a threshold that rounds to zero, or a time constant
    whose shifts would pass the register's width.
    """
    spec = MODELS[lif.model]
    syn = lif.synapse
    if lif.leakless:
        tau_m_plan = None
        gain = lif.R
    else:
        tau_m_plan = plan_time_constant(lif.tau_m_nom, gamma)
        gain = lif.R / tau_m_plan.tau_nom_c_exact
    u_th_fp = fixed_constant("u_th", lif.u_th)
    if u_th_fp == 0:
        raise ValueError(f"u_th {lif.u_th:g} rounds to a zero threshold in the {TOTAL_BITS}-bit fixed-point format")

    q_fp = fixed_constant("q", syn.q)
    tau_s1_plan = tau_s2_plan = None
    syn_gain_fp = 0
    if syn.order in ("first", "second"):
        tau_s1_plan = plan_time_constant(syn.tau_s1_nom, gamma)
    if syn.order == "second":
        tau_s2_plan = plan_time_constant(syn.tau_s2_nom, gamma)
        peak = _second_order_peak(tau_s1_plan.tau_nom_c_exact, tau_s2_plan.tau_nom_c_exact)
        syn_gain_fp = fixed_constant("synaptic gain q/peak", syn.q / peak, f" at gamma {gamma}")

    beta_pow_fp = None
    if spec.bursting:
        # numpy scalar powers overflow to inf where Python floats raise. An entry
        # past the register is held one LSB above it, the limit when beta > 1: the
        # gain it scales is at least 1.0, so burst_gain_update's product clamps and
        # counts. When beta < 1 the limit is 0; when beta = 1 every entry is 1.0.
        beta = np.float64(lif.beta)
        limit = RAW_MAX + 1 if beta > 1 else 0 if beta < 1 else SCALE
        powers = [SCALE]  # beta**0
        with np.errstate(over="ignore"):
            while len(powers) <= max(lif.n_max, gamma) and powers[-1] != limit:
                powers.append(int(np.minimum(np.rint(beta ** len(powers) * SCALE), RAW_MAX + 1)))
        beta_pow_fp = np.array(powers, dtype=np.int64)
        beta_pow_fp.setflags(write=False)  # a compiled neuron is shared by every run at its ratio

    return CompiledNeuron(
        lif=lif,
        gamma=gamma,
        u_th_fp=u_th_fp,
        gain_fp=fixed_constant("membrane gain R/tau_m", gain, f" at gamma {gamma}"),
        q_fp=q_fp,
        syn_gain_fp=syn_gain_fp,
        n_max=lif.n_max if spec.weighted_out else 1,
        spec=spec,
        tau_m_plan=tau_m_plan,
        tau_s1_plan=tau_s1_plan,
        tau_s2_plan=tau_s2_plan,
        beta_pow_fp=beta_pow_fp,
    )


class Fits(NamedTuple):
    """Which clamp sites of one population's datapath can never clamp.

    ``drive`` is the layer's summed input, ``syn`` the synaptic filter's
    product (q times the drive in first order, the normalized output in
    second order), ``gain`` the membrane gain product and ``u`` the
    membrane before it fires.
    """

    drive: bool = False
    s1: bool = False
    s2: bool = False
    syn: bool = False
    gain: bool = False
    u: bool = False


NO_PROOF = Fits()  # every site checked


def site_ranges(comp: CompiledNeuron, drive_bound: float) -> dict:
    """Worst-case interval (lo, hi) of the values reaching each clamp site of
    a non-bursting run at ``comp``, keyed by :class:`Fits` field.

    ``drive_bound`` bounds |drive| at every step of the run, and the
    synaptic and membrane states start at zero and advance on the shifts of
    ``comp``'s plans. A site that does not fit its register is clamped, so
    the register bounds what it passes on. A leakless membrane has no bound
    (None); the sites a synapse order lacks are absent.
    """

    def held(iv):  # values after the site's clamp
        return (RAW_MIN, RAW_MAX) if iv is None else tuple(min(max(v, RAW_MIN), RAW_MAX) for v in iv)

    def product(a, iv):  # floor(a*x / 2**FRAC_BITS) is monotone in x
        return tuple(sorted((a * v) >> FRAC_BITS for v in iv))

    def decayed(iv, plan):  # x <- x - (x >> k) + d, k <= k_high, keeps x in 2**k_high * [d_lo, d_hi]
        return None if plan is None else tuple(v << plan.k_high for v in iv)

    bound = math.ceil(drive_bound)
    ranges = {"drive": (-bound, bound)}
    current = held(ranges["drive"])
    order = comp.lif.synapse.order
    if order == "first":
        ranges["syn"] = product(comp.q_fp, current)
        ranges["s1"] = decayed(held(ranges["syn"]), comp.tau_s1_plan)
        current = held(ranges["s1"])
    elif order == "second":
        ranges["s1"] = decayed(current, comp.tau_s1_plan)
        ranges["s2"] = decayed(current, comp.tau_s2_plan)
        (lo1, hi1), (lo2, hi2) = held(ranges["s1"]), held(ranges["s2"])
        ranges["syn"] = product(comp.syn_gain_fp, (lo2 - hi1, hi2 - lo1))
        current = held(ranges["syn"])
    ranges["gain"] = product(comp.gain_fp, current)
    ranges["u"] = decayed(held(ranges["gain"]), comp.tau_m_plan)
    return ranges


def prove_ranges(comp: CompiledNeuron, drive_bound: float) -> Fits:
    """The clamp sites of a run at ``comp`` that can never clamp, given a
    bound on |drive| (see :func:`site_ranges`). Bursting runs prove nothing
    (see the module docstring)."""
    if comp.spec.bursting:
        return NO_PROOF
    return Fits(**{
        site: iv is not None and RAW_MIN <= iv[0] and iv[1] <= RAW_MAX
        for site, iv in site_ranges(comp, drive_bound).items()
    })


def synapse_step(
    state: NeuronState,
    drive_fp: np.ndarray,
    comp: CompiledNeuron,
    k_s1: int = 0,
    k_s2: int = 0,
    sat: np.ndarray | None = None,
    fits: Fits = NO_PROOF,
) -> np.ndarray:
    """Advance the synaptic filter one step and return the current I.

    ``drive_fp`` is the weight-multiplied input sum per neuron (raw fixed
    point). Zeroth order passes it through, the array itself; first order is
    a decaying accumulator scaled by q, returned as the state's own ``s1``;
    second order subtracts a fast rise stage from a slow decay stage,
    normalized so a unit impulse peaks near q. ``fits`` names the sites
    proven never to clamp (:func:`prove_ranges`).
    """
    order = comp.lif.synapse.order
    if order == "zeroth":
        return drive_fp
    s1 = state.s1
    s1 -= s1 >> k_s1
    if order == "first":
        scaled = comp.q_fp * drive_fp
        scaled >>= FRAC_BITS
        s1 += saturate(scaled, sat, fits.syn)
        state.s1 = s1 = saturate(s1, sat, fits.s1)
        return s1
    s1 += drive_fp
    s2 = state.s2
    s2 -= s2 >> k_s2
    s2 += drive_fp
    state.s1, state.s2 = s1, s2 = saturate(s1, sat, fits.s1), saturate(s2, sat, fits.s2)
    current = comp.syn_gain_fp * (s2 - s1)
    current >>= FRAC_BITS
    return saturate(current, sat, fits.syn)


def burst_gain_update(
    g: np.ndarray, prev_out: np.ndarray, comp: CompiledNeuron, sat: np.ndarray | None = None
) -> np.ndarray:
    """One burst-gain step for a population of spike sources.

    A source that emitted a weight-w spike last step scales its gain by
    beta**w; a silent one resets to 1. The product is a fixed-point
    multiply, so a gain past the register range is clamped and counted.
    """
    lut = comp.beta_pow_fp
    scaled = fixed_mul(g, lut[np.minimum(prev_out, len(lut) - 1)], sat)
    return np.where(prev_out > 0, scaled, np.int64(SCALE))


def integrate_fire(
    state: NeuronState,
    i_fp: np.ndarray,
    comp: CompiledNeuron,
    k_m: int = 0,
    sat: np.ndarray | None = None,
    fits: Fits = NO_PROOF,
) -> np.ndarray:
    """One step of the shared core: decay, integrate, fire, soft reset.

    With k*thr <= u < (k+1)*thr the output weight is k, capped at n_max, and
    the reset subtracts k*thr; above n_max*thr the residual may exceed thr
    and fires again next step. The threshold thr is u_th or, for bursting
    models, g*u_th (at least one LSB) after g is updated from the unit's
    previous output. ``fits`` names the sites proven never to clamp
    (:func:`prove_ranges`).
    """
    thr = comp.u_th_fp
    bursting = comp.spec.bursting
    if bursting:
        state.g = burst_gain_update(state.g, state.prev_out, comp, sat)
        thr = np.maximum(fixed_mul(comp.u_th_fp, state.g, sat), 1)
    u = state.u
    if comp.tau_m_plan is not None:
        u -= u >> k_m
    drive = comp.gain_fp * i_fp
    drive >>= FRAC_BITS
    u += saturate(drive, sat, fits.gain)
    state.u = u = saturate(u, sat, fits.u)
    out = np.minimum(np.maximum(u // thr, 0), comp.n_max)
    u -= out * thr
    if bursting:
        state.prev_out = out
    return out


# one entry per model, all the same core; the engine looks its model up per run
STEP_FUNCTIONS = {model: integrate_fire for model in MODELS}
