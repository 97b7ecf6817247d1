"""Liquid-state-machine topology and the deterministic simulation engine.

The network is input channels -> recurrent reservoir -> readout, with fixed
signed power-of-two synapses everywhere except the plastic reservoir->readout
layer. A built network is the pre-designed SNN and holds no ratio: every
run takes its own compression ratio gamma. The run merges each input
channel's windows of gamma steps into weighted spikes and compiles the
neuron (one row of :data:`~tcsnn.neuron.MODELS`) at gamma, with every time
constant scaled exactly and realized through shifter schedules; reservoir
and readout share that compiled neuron. gamma = 1 is the baseline: the raw
binary spikes and the nominal time constants.

An example is a row of a :class:`~tcsnn.spike.SpikeDataset`, a boolean
``(channels, steps)`` spike array. :func:`trains_to_dense` views it as 0/1
counts without a copy and :func:`~tcsnn.compress.compress_train` sums their
windows. From there on spikes stay dense arrays; event lists are derived
from them only when read.

The reservoir is fixed and the readout sends nothing back to it, so the
engine runs reservoir pass -> readout pass -> trace:

- :func:`run_reservoir` simulates input and reservoir for a batch of
  examples side by side, on ``(batch, neuron)`` state arrays, and returns
  one :class:`ReservoirPass` per example: its input events, the reservoir's
  output weight per step and the pass's own event and saturation counts.
- :func:`run_readout` runs the readout over a batch of reservoir passes the
  same way, on ``(batch, readout)`` state, and returns one
  :class:`ReadoutPass` per pass. Frozen weights serve a whole test split in
  one call.
- A learner, whose weights change between steps, runs the readout on one
  pass at a time through :func:`_learning_readout`, whose loop keeps only
  the work that depends on the weights: the drive and the readout's step.
  Its readout runs one neuron at a time on Python ints: at five neurons, a
  numpy call costs more than the arithmetic it does. Each neuron steps
  through the same :func:`~tcsnn.neuron.synapse_step` and step function as
  the arrays do.
- :func:`simulate` returns one example's :class:`SimulationTrace`, a view
  of its two passes, running whichever it was not given. Training replays
  a reservoir pass in every epoch; evaluation and the energy count replay
  it again.

Every spike is delivered as a fixed-point amplitude: its weight (1 for
binary-input models) times its source's burst gain (1.0 unless bursting).
A fixed layer's drive is ``(amplitudes @ w.T) >> FRAC_BITS``, exact for the
fixed +/- 2**(e + FRAC_BITS) weights: a float64 matmul while every partial
sum provably stays below 2**53, an integer one otherwise (bursting). The
plastic readout multiplies the integer spike weights instead: a frozen one
for all steps in one product per example, a learning one in one product per
step. When amplitudes carry fractional bits (bursting), it floors each
product on its own, step by step (:func:`_stepwise_drives`).

Spikes emitted at step t are delivered at step t+1; external input spikes
are delivered at their own step. All arithmetic is integer fixed point, so
traces are bit-reproducible across runs and machines.

Each run starts by bounding its layer's drive: the largest row sum of |w|
times the largest spike weight. For a learning readout every weight is
taken at the larger of its starting value and the learner's clip bounds,
since the learner clips the whole matrix whenever it touches it. From that
bound, :func:`~tcsnn.neuron.prove_ranges` proves which clamp sites of a
non-bursting run can never clamp, and those skip their checks; outputs and
saturation counts are the same either way. Bursting runs check every site.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .compress import compress_train
from .fixedpoint import FRAC_BITS, RAW_MAX, SCALE, SaturationCounter, saturate
from .neuron import (
    MODELS,
    STEP_FUNCTIONS,
    BurstParams,
    CompiledNeuron,
    Fits,
    LIFParams,
    burst_gain_update,
    compile_neuron,
    new_neuron_state,
    prove_ranges,
    synapse_step,
)

__all__ = [
    "LsmConfig",
    "Network",
    "SimulationTrace",
    "EventCounters",
    "build_lsm",
    "ReservoirPass",
    "ReadoutPass",
    "run_reservoir",
    "run_readout",
    "simulate",
    "trains_to_dense",
]


@dataclass(frozen=True)
class LsmConfig:
    """Construction parameters for one liquid-state machine."""

    num_inputs: int = 78
    reservoir_size: int = 135
    num_readout: int = 5
    reservoir_grid: tuple[int, int, int] = (3, 3, 15)
    c_ee: float = 0.3
    c_ei: float = 0.2
    c_ie: float = 0.4
    c_ii: float = 0.1
    lambda_dist: float = 2.0
    excitatory_fraction: float = 0.8
    input_fanout: int = 4
    in_exp_range: tuple = (0, 3)  # input weight exponents: |w| in 2**lo .. 2**hi
    in_positive_prob: float = 0.8  # input channels mostly excite
    res_exp_range: tuple = (0, 1)  # recurrent exponents; not contractive: activity outlasts the input
    model: str = "iow-lif"
    seed: int = 0
    lif: LIFParams = field(default_factory=LIFParams)
    burst: BurstParams | None = None

    def __post_init__(self):
        if len(self.reservoir_grid) != 3 or min(self.reservoir_grid) < 1:
            raise ValueError(f"grid {self.reservoir_grid} needs three positive sizes")
        gx, gy, gz = self.reservoir_grid
        if gx * gy * gz != self.reservoir_size:
            raise ValueError(
                f"grid {self.reservoir_grid} does not tile {self.reservoir_size} neurons"
            )
        for name in ("c_ee", "c_ei", "c_ie", "c_ii"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.lambda_dist <= 0.0:
            raise ValueError("lambda_dist must be positive")
        if not 0.0 < self.excitatory_fraction < 1.0:
            raise ValueError("excitatory_fraction must be in (0, 1)")
        if not 0 <= self.input_fanout <= self.reservoir_size:
            raise ValueError(f"input_fanout must be in [0, {self.reservoir_size}], got {self.input_fanout}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r} (choose from {', '.join(MODELS)})")
        if MODELS[self.model].bursting and self.lif.synapse.order != "zeroth":
            raise ValueError("bursting models require a zeroth-order synapse")


@dataclass
class Network:
    """Built network: weight matrices are raw fixed-point multipliers.

    Fixed synapses hold +/- 2**(exponent + FRAC_BITS) exactly (signed
    power-of-two weights realized by shifts); absent synapses are zero.
    Readout weights are plastic fixed-point values.
    """

    config: LsmConfig
    w_in: np.ndarray  # (reservoir, inputs)
    w_res: np.ndarray  # (reservoir, reservoir)
    w_out: np.ndarray  # (readout, reservoir), plastic
    excitatory: np.ndarray  # bool per reservoir neuron

    @property
    def fan_in(self) -> np.ndarray:
        """Structural fan-out per input channel."""
        return np.count_nonzero(self.w_in, axis=0)

    @property
    def fan_res(self) -> np.ndarray:
        """Structural fan-out per reservoir neuron (recurrent + full readout)."""
        return np.count_nonzero(self.w_res, axis=0) + self.config.num_readout


@functools.lru_cache(maxsize=64)
def _compile(config: LsmConfig, gamma: int) -> CompiledNeuron:
    """The neuron of a run at ``gamma``, shared by reservoir and readout."""
    return compile_neuron(config.model, config.lif, gamma, burst=config.burst)


def build_lsm(config: LsmConfig) -> Network:
    """Deterministically wire an LSM from its config and seed.

    Reservoir connection probability is C(pre,post) * exp(-(d/lambda)^2)
    over euclidean grid distance, with C chosen by the excitatory/inhibitory
    classes (first letter presynaptic). Input channels each drive
    ``input_fanout`` distinct reservoir neurons through random signed
    power-of-two weights; the reservoir is fully connected to the readout.
    """
    rng = np.random.default_rng(config.seed)
    n = config.reservoir_size

    # excitatory/inhibitory split with an exact neuron count
    n_exc = int(round(config.excitatory_fraction * n))
    excitatory = np.zeros(n, dtype=bool)
    excitatory[rng.permutation(n)[:n_exc]] = True

    coords = np.indices(config.reservoir_grid).reshape(3, -1).T.astype(np.float64)
    diff = coords[:, None, :] - coords[None, :, :]
    dist2 = (diff**2).sum(axis=2)

    # c[post, pre]
    c = np.where(
        excitatory[None, :],
        np.where(excitatory[:, None], config.c_ee, config.c_ei),
        np.where(excitatory[:, None], config.c_ie, config.c_ii),
    )
    prob = c * np.exp(-dist2.T / (config.lambda_dist**2))
    np.fill_diagonal(prob, 0.0)
    mask = rng.random((n, n)) < prob

    r_lo, r_hi = config.res_exp_range
    exponents = rng.integers(r_lo, r_hi + 1, size=(n, n))
    sign = np.where(excitatory[None, :], 1, -1)
    w_res = np.where(mask, sign * (np.int64(1) << (exponents + FRAC_BITS)), 0).astype(np.int64)

    i_lo, i_hi = config.in_exp_range
    w_in = np.zeros((n, config.num_inputs), dtype=np.int64)
    for ch in range(config.num_inputs):
        targets = rng.choice(n, size=config.input_fanout, replace=False)
        exps = rng.integers(i_lo, i_hi + 1, size=config.input_fanout)
        signs = np.where(rng.random(config.input_fanout) < config.in_positive_prob, 1, -1)
        w_in[targets, ch] = signs * (np.int64(1) << (exps + FRAC_BITS))

    w_out = np.zeros((config.num_readout, n), dtype=np.int64)

    return Network(config=config, w_in=w_in, w_res=w_res, w_out=w_out, excitatory=excitatory)


@dataclass
class EventCounters:
    """Monotone per-run event tallies feeding the energy model."""

    synaptic_ops: int = 0
    synaptic_ops_input: int = 0
    synaptic_ops_reservoir: int = 0
    neuron_updates: int = 0
    spike_events: int = 0
    saturations: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One example's run at one ratio: a view of its reservoir and readout passes.

    Everything else is derived from the two passes when read: sizes,
    counters, event arrays with rows (unit_id, timestep, weight) ordered by
    timestep, and the membrane potentials when both passes recorded them.
    """

    num_inputs: int
    reservoir: ReservoirPass
    readout: ReadoutPass

    @property
    def gamma(self) -> int:
        return self.reservoir.gamma

    @property
    def timestep_count(self) -> int:
        return self.reservoir.spikes.shape[0]

    @property
    def input_length(self) -> int:
        return self.reservoir.input_length

    @property
    def num_reservoir(self) -> int:
        return self.reservoir.spikes.shape[1]

    @property
    def num_readout(self) -> int:
        return self.readout.outs.shape[1]

    @property
    def num_neurons(self) -> int:
        return self.num_reservoir + self.num_readout

    @property
    def input_events(self) -> np.ndarray:
        return self.reservoir.input_events

    @property
    def reservoir_events(self) -> np.ndarray:
        return _events(self.reservoir.spikes)

    @property
    def readout_events(self) -> np.ndarray:
        return _events(self.readout.outs)

    @property
    def potentials(self) -> dict | None:
        res, read = self.reservoir.potentials, self.readout.potentials
        return None if res is None or read is None else {"reservoir": res, "readout": read}

    @property
    def counters(self) -> EventCounters:
        res = self.reservoir
        return EventCounters(
            synaptic_ops=res.input_ops + res.reservoir_ops,
            synaptic_ops_input=res.input_ops,
            synaptic_ops_reservoir=res.reservoir_ops,
            neuron_updates=self.num_neurons * self.timestep_count,
            spike_events=res.spike_events + int(np.count_nonzero(self.readout.outs)),
            saturations=res.saturations + self.readout.saturations,
        )

    def events_for(self, layer: str) -> np.ndarray:
        return {
            "input": self.input_events,
            "reservoir": self.reservoir_events,
            "readout": self.readout_events,
        }[layer]

    def layer_size(self, layer: str) -> int:
        return {
            "input": self.num_inputs,
            "reservoir": self.num_reservoir,
            "readout": self.num_readout,
        }[layer]


@functools.lru_cache(maxsize=512)
def _shifts_cached(plan, steps: int) -> np.ndarray:
    out = plan.shifts(steps)
    out.setflags(write=False)
    return out


def _plan_shifts(comp: CompiledNeuron, steps: int):
    """Per-step membrane and synapse shifts; zeros where the stage is absent."""
    unused = np.zeros(steps, dtype=np.int64)
    return tuple(
        unused if plan is None else _shifts_cached(plan, steps)
        for plan in (comp.tau_m_plan, comp.tau_s1_plan, comp.tau_s2_plan)
    )


@dataclass(frozen=True, eq=False)
class ReservoirPass:
    """One example's reservoir activity at one ratio.

    The reservoir is fixed and the readout feeds nothing back to it, so one
    pass serves every readout run of the example: each training epoch, the
    evaluation and the energy count. ``spikes`` holds each neuron's output
    weight per step, which also fixes its burst gain at every step. The
    counters are the pass's own share of the run's :class:`EventCounters`.
    """

    gamma: int
    input_length: int
    input_events: np.ndarray  # rows (channel, timestep, weight) ordered by timestep
    spikes: np.ndarray  # (steps, neurons), small unsigned ints
    input_ops: int
    reservoir_ops: int
    spike_events: int  # input and reservoir spikes
    saturations: int
    potentials: np.ndarray | None = None  # (steps, neurons) raw membrane potentials


def _drive_bound(w: np.ndarray, amp_max: float) -> float:
    """Largest |w @ amp| over amplitudes up to ``amp_max``: the largest row sum of |w| times it."""
    return float(np.abs(w).sum(axis=1, dtype=np.float64).max(initial=0.0)) * amp_max


class _Projection:
    """Weights ``w`` (post, pre), fixed while it lives, delivering a batch of
    presynaptic amplitudes: ``(amp @ w.T) >> frac``, exact in integers.
    ``bound`` bounds the |value| of every delivery."""

    def __init__(self, w: np.ndarray, amp_max: int, frac: int):
        self.w_t = np.ascontiguousarray(w.T)
        self.frac = frac
        # A float64 matmul is exact while every partial sum of integer
        # products stays below 2**53, and each is at most (largest row sum
        # of |w|) * amp_max; 2**52 leaves a bit for rounding the bound.
        # Non-bursting amplitudes are at most n_max * 2**frac, far inside;
        # burst gains reach raw_max (2**31), so bursting sums stay int64.
        bound = _drive_bound(w, amp_max)
        self.w_float = self.w_t.astype(np.float64) if bound < 2.0**52 else None
        self.bound = bound / (1 << frac)

    def __call__(self, amp: np.ndarray) -> np.ndarray:
        if self.w_float is not None:
            total = (amp @ self.w_float).astype(np.int64)
        else:  # gather the active sources only: bursting activity is sparse
            rows, cols = np.nonzero(amp)
            total = np.zeros((amp.shape[0], self.w_t.shape[1]), dtype=np.int64)
            if rows.size:
                terms = self.w_t[cols] * amp[rows, cols][:, None]
                starts = np.flatnonzero(np.diff(rows, prepend=-1))
                total[rows[starts]] = np.add.reduceat(terms, starts, axis=0)
        return total >> self.frac


def trains_to_dense(row) -> np.ndarray:
    """An example row as ``(channels, steps)`` 0/1 spike counts: its bytes, not a copy.

    The one place the engine turns an example into counts; the benchmark's
    tracer times it under this name.
    """
    return np.asarray(row, dtype=bool).view(np.uint8)


def _events(per_step: np.ndarray) -> np.ndarray:
    """Spike records (unit, timestep, weight) of a (steps, units) array, ordered by timestep."""
    ts, units = np.nonzero(per_step)
    return np.column_stack((units, ts, per_step[ts, units]))


def run_reservoir(
    network: Network,
    examples,
    gamma: int,
    record_potentials: bool = False,
) -> list[ReservoirPass]:
    """Run the reservoir once over a batch of example rows at ``gamma``, one pass each.

    The examples advance side by side on ``(batch, neuron)`` state arrays, so
    they must run for the same number of steps. Every pass, its saturation
    count included, equals the pass of a batch of one. ``examples`` is read
    once, in order, so a generator of rows never holds them all at once.
    """
    cfg = network.config
    comp = _compile(cfg, gamma)
    steps = None
    inputs = []  # (input events, input length) per example
    for row in examples:
        dense = trains_to_dense(row)
        if dense.ndim != 2 or dense.shape[0] != cfg.num_inputs:
            raise ValueError(f"expected a ({cfg.num_inputs}, steps) example row, got shape {dense.shape}")
        counts = compress_train(dense, gamma).T  # (steps, channels)
        if steps is None:
            steps = counts.shape[0]
        elif counts.shape[0] != steps:
            raise ValueError(f"examples of one batch must run equally long: {steps} and {counts.shape[0]} steps")
        inputs.append((_events(counts), dense.shape[1]))
    if not inputs:
        return []
    # input spike weights per (example, step, channel): at most gamma, and 1 unless weighted in
    weighted_in = comp.spec.weighted_in
    w_max = gamma if weighted_in else 1
    batch, n_res = len(inputs), cfg.reservoir_size
    in_weights = np.zeros((batch, steps, cfg.num_inputs), dtype=np.min_scalar_type(w_max))
    for b, (events, _) in enumerate(inputs):
        in_weights[b, events[:, 1], events[:, 0]] = events[:, 2] if weighted_in else 1

    bursting = comp.spec.bursting
    step_fn = STEP_FUNCTIONS[cfg.model]

    amp_unit = RAW_MAX if bursting else SCALE  # largest amplitude of a weight-1 spike
    deliver_in = _Projection(network.w_in, w_max * amp_unit, FRAC_BITS)
    deliver_res = _Projection(network.w_res, comp.n_max * amp_unit, FRAC_BITS)
    fits = prove_ranges(comp, deliver_in.bound + deliver_res.bound)

    sat = SaturationCounter(rows=batch)
    state = new_neuron_state((batch, n_res), bursting)
    k_m, k_s1, k_s2 = _plan_shifts(comp, steps)
    spikes = np.zeros((batch, steps, n_res), dtype=np.min_scalar_type(comp.n_max))
    potentials = np.empty((batch, steps, n_res), dtype=np.int64) if record_potentials else None
    if bursting:  # input channels carry a burst gain of their own
        in_gain = np.full((batch, cfg.num_inputs), SCALE, dtype=np.int64)
        in_prev = np.zeros_like(in_gain)
    amp_res = None  # reservoir spikes of the previous step, delivered at this one

    for t in range(steps):
        w = in_weights[:, t].astype(np.int64)
        if bursting:
            in_gain = burst_gain_update(in_gain, in_prev, comp, sat)
            in_prev = w
            drive = deliver_in(in_gain * w)
        else:
            drive = deliver_in(w << FRAC_BITS)
        if amp_res is not None:
            drive += deliver_res(amp_res)
        drive = saturate(drive, sat, fits.drive)
        i_res = synapse_step(state, drive, comp, k_s1[t], k_s2[t], sat, fits)
        out = step_fn(state, i_res, comp, k_m[t], sat, fits)
        spikes[:, t] = out
        amp_res = state.g * out if bursting else out << FRAC_BITS
        if record_potentials:
            potentials[:, t] = state.u

    fan_in, fan_res = network.fan_in, network.fan_res
    # the last step's spikes are never delivered, so they cost no reservoir op
    return [
        ReservoirPass(
            gamma=gamma,
            input_length=length,
            input_events=events,
            spikes=spikes[b],
            input_ops=int(fan_in[events[:, 0]].sum()),
            reservoir_ops=int(np.count_nonzero(spikes[b, :-1], axis=0) @ fan_res),
            spike_events=events.shape[0] + int(np.count_nonzero(spikes[b])),
            saturations=int(sat.count[b]),
            potentials=None if potentials is None else potentials[b],
        )
        for b, (events, length) in enumerate(inputs)
    ]


@dataclass(frozen=True, eq=False)
class ReadoutPass:
    """The readout's activity on one reservoir pass, under the weights it ran with."""

    gamma: int
    outs: np.ndarray  # (steps, readout) output weight per step
    saturations: int
    potentials: np.ndarray | None = None  # (steps, readout) raw membrane potentials


def run_readout(
    network: Network,
    passes,
    gamma: int,
    record_potentials: bool = False,
) -> list[ReadoutPass]:
    """Run the frozen readout over a batch of reservoir passes at ``gamma``, one run each.

    The passes advance side by side on ``(batch, readout)`` state arrays, so
    they must run equally long, and every run, its saturation count
    included, equals the run of a batch of one.
    """
    passes = list(passes)
    for p in passes:
        if p.gamma != gamma:
            raise ValueError(f"reservoir pass ran at gamma {p.gamma}, not {gamma}")
    lengths = sorted({p.spikes.shape[0] for p in passes})
    if len(lengths) > 1:
        raise ValueError(f"passes of one batch must run equally long, got {lengths} steps")
    if not passes:
        return []
    cfg = network.config
    comp = _compile(cfg, gamma)
    batch, steps = len(passes), lengths[0]
    n_read = cfg.num_readout
    step_fn = STEP_FUNCTIONS[cfg.model]
    w_out = network.w_out

    sat = SaturationCounter(rows=batch)
    state = new_neuron_state((batch, n_read), comp.spec.bursting)
    k_m, k_s1, k_s2 = _plan_shifts(comp, steps)
    outs = np.empty((batch, steps, n_read), dtype=np.int64)
    potentials = np.empty((batch, steps, n_read), dtype=np.int64) if record_potentials else None
    deliver = _Projection(w_out, comp.n_max, 0)
    fits = prove_ranges(comp, deliver.bound)
    if comp.spec.bursting:  # fractional amplitudes: the drive step by step
        spikes = np.stack([p.spikes for p in passes])
        drives = (saturate(drive, sat) for _, drive in _stepwise_drives(w_out, spikes, comp))
    else:  # every step's drive from one product per example, clamped elementwise
        drives = np.zeros((batch, steps, n_read), dtype=np.int64)
        for b, p in enumerate(passes):
            drives[b, 1:] = deliver(p.spikes[:-1])
        drives = saturate(drives, sat, fits.drive).swapaxes(0, 1)

    for t, drive in enumerate(drives):
        i_read = synapse_step(state, drive, comp, k_s1[t], k_s2[t], sat, fits)
        outs[:, t] = step_fn(state, i_read, comp, k_m[t], sat, fits)
        if record_potentials:
            potentials[:, t] = state.u

    return [
        ReadoutPass(
            gamma=gamma,
            outs=outs[b],
            saturations=int(sat.count[b]),
            potentials=None if potentials is None else potentials[b],
        )
        for b in range(batch)
    ]


def _stepwise_drives(w_out: np.ndarray, spikes: np.ndarray, comp: CompiledNeuron):
    """Yield each step's delivered spike weights and unclamped bursting readout drive.

    Bursting amplitudes carry fractional bits, so each product is floored
    on its own, one step at a time; the reservoir's burst gains are replayed
    from its spikes (the passes counted their clamps). ``spikes`` is a
    ``(..., steps, reservoir)`` array of reservoir passes, widened to int64
    here one step at a time unless it already is; the spikes of step t
    reach the readout at step t+1. Each drive is computed from ``w_out`` as
    it stands when the step is drawn, so a learner may change it in between.
    """
    delivered = np.zeros(spikes.shape[:-2] + spikes.shape[-1:], dtype=np.int64)
    gain = np.full_like(delivered, SCALE)
    for t in range(spikes.shape[-2]):
        if t:
            delivered = spikes[..., t - 1, :].astype(np.int64, copy=False)
        yield delivered, ((w_out * (gain * delivered)[..., None, :]) >> FRAC_BITS).sum(axis=-1)
        gain = burst_gain_update(gain, delivered, comp)


def _learning_readout(network: Network, res: ReservoirPass, comp: CompiledNeuron, fits: Fits, on_step,
                      record_potentials: bool = False) -> ReadoutPass:
    """The readout's run on one pass while ``on_step`` updates ``network.w_out`` between steps.

    ``comp`` is the neuron compiled at the pass's ratio, and ``fits`` names
    the sites proven never to clamp at any weight the learner can reach.
    Only the work that depends on ``w_out`` stays in the loop. Without
    bursting, the pass's spikes are widened to int64 once, one step later
    (the spikes of step t reach the readout at step t+1), and shifted up by
    ``FRAC_BITS`` once for the learner's trace; each step's drive is then
    one product over the readout. When bursting, :func:`_stepwise_drives`
    gives each step's spike weights and drive, and the weights are shifted
    step by step. Each readout neuron holds its state as Python ints and
    steps alone, through the same :func:`~tcsnn.neuron.synapse_step` and
    step function as a frozen batch. ``on_step(t, row, outs)`` gets the
    shifted spike weights as a row and the outputs as a list.
    """
    cfg = network.config
    steps = res.spikes.shape[0]
    step_fn = STEP_FUNCTIONS[cfg.model]
    w_out = network.w_out
    sat = SaturationCounter()
    states = [new_neuron_state(None, comp.spec.bursting) for _ in range(cfg.num_readout)]
    k_m, k_s1, k_s2 = (k.tolist() for k in _plan_shifts(comp, steps))
    outs = []
    potentials = [] if record_potentials else None

    if comp.spec.bursting:  # fractional amplitudes: each product floored on its own
        drives = ((row << FRAC_BITS, drive) for row, drive in _stepwise_drives(w_out, res.spikes, comp))
    else:  # the spikes of step t reach the readout at step t+1
        delivered = np.zeros(res.spikes.shape, dtype=np.int64)
        delivered[1:] = res.spikes[:-1]
        drives = zip(delivered << FRAC_BITS, map(w_out.dot, delivered))  # each product taken as its step begins
    for t, (row_fp, drive) in enumerate(drives):
        drive = drive.tolist()
        if not fits.drive:
            drive = [saturate(d, sat) for d in drive]
        km, ks1, ks2 = k_m[t], k_s1[t], k_s2[t]
        out = [step_fn(state, synapse_step(state, d, comp, ks1, ks2, sat, fits), comp, km, sat, fits)
               for state, d in zip(states, drive)]
        on_step(t, row_fp, out)
        outs.append(out)
        if record_potentials:
            potentials.append([state.u for state in states])

    shape = (steps, cfg.num_readout)
    return ReadoutPass(
        gamma=comp.gamma,
        outs=np.array(outs, dtype=np.int64).reshape(shape),
        saturations=sat.count,
        potentials=None if potentials is None else np.array(potentials, dtype=np.int64).reshape(shape),
    )


def simulate(
    network: Network,
    example,
    gamma: int,
    record_potentials: bool = False,
    reservoir: ReservoirPass | None = None,
    readout: ReadoutPass | None = None,
) -> SimulationTrace:
    """Run one example through the network and return its trace.

    ``example`` is an example row, a boolean ``(channels, steps)`` spike
    array, merged at ratio ``gamma`` with all constants rescaled; gamma = 1
    feeds it raw with the nominal constants. ``reservoir`` is the example's
    pass from :func:`run_reservoir` and ``readout`` the readout's run on it
    from :func:`run_readout`, both at the same ratio; whichever is not given
    runs here, as a batch of one.
    """
    if reservoir is None:
        reservoir = run_reservoir(network, [example], gamma, record_potentials)[0]
    elif reservoir.gamma != gamma:
        raise ValueError(f"reservoir pass ran at gamma {reservoir.gamma}, not {gamma}")
    if record_potentials and reservoir.potentials is None:
        raise ValueError("the reservoir pass has no potentials: run it with record_potentials=True")
    steps = reservoir.spikes.shape[0]
    if readout is None:
        (readout,) = run_readout(network, [reservoir], gamma, record_potentials)
    elif readout.gamma != gamma:
        raise ValueError(f"readout pass ran at gamma {readout.gamma}, not {gamma}")
    elif readout.outs.shape[0] != steps:
        raise ValueError(f"readout pass ran {readout.outs.shape[0]} steps, its reservoir pass {steps}")
    elif record_potentials and readout.potentials is None:
        raise ValueError("the readout pass has no potentials: run it with record_potentials=True")
    return SimulationTrace(network.config.num_inputs, reservoir, readout)
