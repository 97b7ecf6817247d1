"""Liquid-state-machine topology and the deterministic simulation engine.

The network is input channels -> recurrent reservoir -> readout, with fixed
signed power-of-two synapses everywhere except the plastic reservoir->readout
layer. A built network is the pre-designed SNN and holds no ratio: every
run takes its own compression ratio gamma. The run merges each input
channel's windows of gamma steps into weighted spikes and compiles the
config's neuron ``lif`` at gamma, with every time constant scaled exactly
and realized through shifter schedules; the compiler's cache gives reservoir,
readout and learner one compiled neuron. gamma = 1 is the baseline: the raw
binary spikes and the nominal time constants.

An example is a row of a :class:`~tcsnn.spike.SpikeDataset`, a boolean
``(channels, steps)`` spike array. :func:`trains_to_dense` views it as 0/1
counts without a copy and :func:`~tcsnn.compress.compress_train` sums their
windows. From there on every layer, input included, is a dense ``(steps,
units)`` array of spike weights; event lists are derived only when read.

The reservoir is fixed and the readout sends nothing back to it, so the
engine runs reservoir pass -> readout pass -> trace:

- :func:`run_reservoir` simulates input and reservoir for a batch of
  examples side by side, on ``(batch, neuron)`` state arrays, and returns
  one :class:`ReservoirPass` per example: its input and reservoir spike
  weights per step and the pass's own op and saturation counts.
- :func:`run_readout` runs the readout over a batch of reservoir passes the
  same way, on ``(batch, readout)`` state, and returns one
  :class:`ReadoutPass` per pass. Frozen weights serve a whole test split in
  one call.
- A learner, whose weights change between steps, runs the readout on one
  pass at a time through :func:`_learning_readout`. Its loop is a kernel
  of its own on Python ints, since at five neurons a numpy call, or any
  call, costs more than the arithmetic it does. It writes out the datapath
  of :func:`~tcsnn.neuron.synapse_step` and
  :func:`~tcsnn.neuron.integrate_fire` per unit and keeps the teacher's
  tallies, and it calls the learner only on the steps where the teacher
  rule acts; the weights hold still on all others. The tests hold its runs
  equal to a frozen batch's when the weights do not move.
- :func:`simulate` returns one example's :class:`SimulationTrace`, a view
  of its two passes, running whichever it was not given. Training replays
  a reservoir pass in every epoch; evaluation and the energy count replay
  it again.

Every spike is delivered as its amplitude: its weight (1 for binary-input
models), times its source's burst gain when bursting, which carries
fractional bits. A reservoir step's drive is one product of the step's input
amplitudes and the last step's reservoir ones, side by side, with the
stacked ``[w_in | w_res]``, in the narrowest type provably exact
(:class:`_Projection`): float32 for the fixed +/- 2**(e + FRAC_BITS)
weights, float64 when burst gains scale the amplitudes. The plastic
readout multiplies the integer spike weights: a frozen one for all steps in
one product per example, a learning one in one int64 product per block of
steps between two weight changes. Bursting readouts take the amplitudes
their pass recorded and floor each product on its own (:func:`_burst_drives`).

Spikes emitted at step t are delivered at step t+1; external input spikes
are delivered at their own step. All arithmetic is integer fixed point, so
traces are bit-reproducible across runs and machines.

Each run starts by bounding its layer's drive: the largest entry of |w| @
amp_max, each source's largest amplitude. For a learning readout every weight
is taken at the larger of its starting value and the learner's clip bounds,
since the learner clips the whole matrix whenever it touches it. From that
bound, :func:`~tcsnn.neuron.prove_ranges` proves which clamp sites of a
non-bursting run can never clamp, and those skip their checks; outputs and
saturation counts are the same either way. Bursting runs check every site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compress import compress_train
from .fixedpoint import FRAC_BITS, RAW_MAX, RAW_MIN, SCALE, saturate
from .neuron import (
    STEP_FUNCTIONS,
    CompiledNeuron,
    Fits,
    LIFParams,
    NeuronState,
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
    seed: int = 0
    lif: LIFParams = field(default_factory=LIFParams)  # the neuron of every layer

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

    @property
    def fan_in(self) -> np.ndarray:
        """Structural fan-out per input channel."""
        return np.count_nonzero(self.w_in, axis=0)

    @property
    def fan_res(self) -> np.ndarray:
        """Structural fan-out per reservoir neuron (recurrent + full readout)."""
        return np.count_nonzero(self.w_res, axis=0) + self.config.num_readout


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

    return Network(config=config, w_in=w_in, w_res=w_res, w_out=w_out)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One example's run at one ratio: a view of its reservoir and readout passes.

    Each layer is a dense ``(steps, units)`` array of spike weights
    (:meth:`layer`), and :meth:`events_for` lists a layer's spikes as rows
    (unit_id, timestep, weight) ordered by timestep. Everything else is
    derived when read: sizes, the event counters by name (the ``counters`` of
    a run report), and the membrane potentials when both passes recorded them.
    """

    reservoir: ReservoirPass
    readout: ReadoutPass

    @property
    def timestep_count(self) -> int:
        return self.reservoir.spikes.shape[0]

    @property
    def num_neurons(self) -> int:
        return self.reservoir.spikes.shape[1] + self.readout.outs.shape[1]

    def layer(self, name: str) -> np.ndarray:
        """The ``(steps, units)`` spike weights of layer ``input``, ``reservoir`` or ``readout``."""
        return {"input": self.reservoir.inputs, "reservoir": self.reservoir.spikes, "readout": self.readout.outs}[name]

    def events_for(self, layer: str) -> np.ndarray:
        return _events(self.layer(layer))

    @property  # perfbench/tracer.py reads this one alias; other callers use events_for
    def reservoir_events(self) -> np.ndarray:
        return self.events_for("reservoir")

    @property
    def potentials(self) -> dict | None:
        res, read = self.reservoir.potentials, self.readout.potentials
        return None if res is None or read is None else {"reservoir": res, "readout": read}

    @property
    def counters(self) -> dict:
        res = self.reservoir
        return {
            "synaptic_ops": res.input_ops + res.reservoir_ops,
            "synaptic_ops_input": res.input_ops,
            "synaptic_ops_reservoir": res.reservoir_ops,
            "neuron_updates": self.num_neurons * self.timestep_count,
            "spike_events": sum(int(np.count_nonzero(a)) for a in (res.inputs, res.spikes, self.readout.outs)),
            "saturations": res.saturations + self.readout.saturations,
        }


def _plan_shifts(comp: CompiledNeuron, steps: int):
    """Per-step membrane and synapse shifts; zeros where the stage is absent."""
    unused = np.zeros(steps, dtype=np.int64)
    return tuple(
        unused if plan is None else plan.shifts(steps)
        for plan in (comp.tau_m_plan, comp.tau_s1_plan, comp.tau_s2_plan)
    )


@dataclass(frozen=True, eq=False)
class ReservoirPass:
    """One example's input and reservoir activity at one ratio.

    The reservoir is fixed and the readout feeds nothing back to it, so one
    pass serves every readout run of the example: each training epoch, the
    evaluation and the energy count. ``inputs`` holds each channel's
    compressed spike weight per step and ``spikes`` each neuron's output
    weight, and a bursting pass ``amplitudes``: each spike's weight times its
    neuron's burst gain, in ``np.nonzero(spikes)`` order. The counters are
    the pass's own share of the run's :attr:`SimulationTrace.counters`.
    """

    gamma: int
    inputs: np.ndarray  # (steps, channels), small unsigned ints
    spikes: np.ndarray  # (steps, neurons), small unsigned ints
    input_ops: int
    reservoir_ops: int
    saturations: int
    potentials: np.ndarray | None = None  # (steps, neurons) raw membrane potentials
    amplitudes: np.ndarray | None = None  # (spikes,) raw fixed-point amplitudes, bursting only


def _drive_bound(w: np.ndarray, amp_max) -> float:
    """Largest |w @ amp| over amplitudes up to ``amp_max``, a scalar or one per source (column of ``w``)."""
    return float((np.abs(w, dtype=np.float64) @ np.broadcast_to(amp_max, w.shape[1:])).max(initial=0.0))


class _Projection:
    """Weights ``w`` (post, pre), fixed while it lives, delivering a batch of
    amplitudes, each source's at most its ``amp_max``: ``(amp @ w.T) >> frac``,
    exact in integers, in ``dtype``. ``bound`` bounds every |delivery|.

    Every partial sum is at most the bound and a multiple of the unit, the
    largest power of two dividing every weight (2**FRAC_BITS for the fixed
    layers). float32 holds it exactly below 2**24 units, float64 below 2**52
    units (a bit to spare for rounding the bound), int64 past that.
    """

    def __init__(self, w: np.ndarray, amp_max, frac: int):
        bound = _drive_bound(w, amp_max)
        bits = int(np.bitwise_or.reduce(w, axis=None))
        units = bound / (bits & -bits or 1)  # the lowest bit set in any weight, the same in -w as in w
        self.dtype = np.float32 if units < 2.0**24 else np.float64 if units < 2.0**52 else np.int64
        self.w_t = np.ascontiguousarray(w.T, dtype=self.dtype)
        self.frac = frac
        self.bound = bound / (1 << frac)

    def __call__(self, amp: np.ndarray) -> np.ndarray:
        total = (amp.astype(self.dtype, copy=False) @ self.w_t).astype(np.int64, copy=False)
        total >>= self.frac
        return total


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
    comp = compile_neuron(cfg.lif, gamma)
    steps = None
    rows = []  # compressed input weights per example
    for row in examples:
        dense = trains_to_dense(row)
        if dense.ndim != 2 or dense.shape[0] != cfg.num_inputs:
            raise ValueError(f"expected a ({cfg.num_inputs}, steps) example row, got shape {dense.shape}")
        counts = compress_train(dense, gamma).T  # (steps, channels)
        if steps is None:
            steps = counts.shape[0]
        elif counts.shape[0] != steps:
            raise ValueError(f"examples of one batch must run equally long: {steps} and {counts.shape[0]} steps")
        rows.append(counts.astype(np.min_scalar_type(gamma), copy=False))
    if not rows:
        return []
    # input spike weights per (example, step, channel), each at most gamma,
    # delivered as they are when weighted in and as 1 otherwise
    inputs = np.stack(rows)
    delivered = inputs if comp.spec.weighted_in else np.minimum(inputs, 1)
    w_max = gamma if comp.spec.weighted_in else 1
    batch, n_in, n_res = len(rows), cfg.num_inputs, cfg.reservoir_size

    bursting = comp.spec.bursting
    step_fn = STEP_FUNCTIONS[cfg.lif.model]

    # each source's largest amplitude, inputs then neurons: a spike weight, times a raw burst gain when bursting
    amp_max = np.repeat([w_max, comp.n_max], [n_in, n_res]) * (RAW_MAX if bursting else 1)
    deliver = _Projection(np.hstack((network.w_in, network.w_res)), amp_max, FRAC_BITS if bursting else 0)
    fits = prove_ranges(comp, deliver.bound)
    amp = np.zeros((batch, n_in + n_res), dtype=deliver.dtype)  # this step's inputs, the last step's spikes
    amp_in, amp_res = amp[:, :n_in], amp[:, n_in:]

    sat = np.zeros(batch, dtype=np.int64)  # clamps per example
    state = new_neuron_state((batch, n_res), bursting)
    k_m, k_s1, k_s2 = _plan_shifts(comp, steps)
    spikes = np.zeros((batch, steps, n_res), dtype=np.min_scalar_type(comp.n_max))
    potentials = np.empty((batch, steps, n_res), dtype=np.int64) if record_potentials else None
    if bursting:  # input channels carry a burst gain of their own
        in_gain = np.full((batch, n_in), SCALE, dtype=np.int64)
        in_prev = np.zeros_like(in_gain)
        # each step's amplitudes, in the order of np.nonzero(out), and each example's count of them
        fired, counts = [], np.zeros((batch, steps), dtype=np.intp)

    for t in range(steps):
        if bursting:
            w = delivered[:, t].astype(np.int64)
            in_gain = burst_gain_update(in_gain, in_prev, comp, sat)
            in_prev = w
            np.multiply(in_gain, w, out=amp_in)
        else:
            amp_in[:] = delivered[:, t]
        drive = saturate(deliver(amp), sat, fits.drive)
        i_res = synapse_step(state, drive, comp, k_s1[t], k_s2[t], sat, fits)
        out = step_fn(state, i_res, comp, k_m[t], sat, fits)
        spikes[:, t] = out
        if bursting:
            np.multiply(state.g, out, out=amp_res)
            fires = out > 0
            fired.append(amp_res[fires])
            counts[:, t] = np.count_nonzero(fires, axis=1)
        else:
            amp_res[:] = out
        if record_potentials:
            potentials[:, t] = state.u

    if bursting:  # each example's amplitudes, in the order of np.nonzero(its spikes)
        # where each example's spikes of each step start in one flat record of all of them
        starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
        flat = np.empty(counts.sum(), dtype=np.int64)
        for t, amps in enumerate(fired):  # a step's amplitudes come example by example
            n = counts[:, t]
            flat[np.repeat(starts[:, t] - (np.cumsum(n) - n), n) + np.arange(amps.size)] = amps
            fired[t] = None  # free each step's record once it is in place
        amplitudes = np.split(flat, np.cumsum(counts.sum(axis=1))[:-1])
    fan_in, fan_res = network.fan_in, network.fan_res
    # the last step's spikes are never delivered, so they cost no reservoir op
    return [
        ReservoirPass(
            gamma=gamma,
            inputs=inputs[b],
            spikes=spikes[b],
            input_ops=int(np.count_nonzero(inputs[b], axis=0) @ fan_in),
            reservoir_ops=int(np.count_nonzero(spikes[b, :-1], axis=0) @ fan_res),
            saturations=int(sat[b]),
            potentials=None if potentials is None else potentials[b],
            amplitudes=amplitudes[b] if bursting else None,
        )
        for b in range(batch)
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
    comp = compile_neuron(cfg.lif, gamma)
    batch, steps = len(passes), lengths[0]
    n_read = cfg.num_readout
    step_fn = STEP_FUNCTIONS[cfg.lif.model]
    w_out = network.w_out

    sat = np.zeros(batch, dtype=np.int64)  # clamps per example
    state = new_neuron_state((batch, n_read), comp.spec.bursting)
    k_m, k_s1, k_s2 = _plan_shifts(comp, steps)
    outs = np.empty((batch, steps, n_read), dtype=np.int64)
    potentials = np.empty((batch, steps, n_read), dtype=np.int64) if record_potentials else None
    deliver = _Projection(w_out, comp.n_max, 0)
    fits = prove_ranges(comp, deliver.bound)
    if comp.spec.bursting:  # fractional amplitudes: the drive step by step
        drives = (saturate(np.stack(step), sat) for step in zip(*(_burst_drives(w_out, p) for p in passes)))
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
            saturations=int(sat[b]),
            potentials=None if potentials is None else potentials[b],
        )
        for b in range(batch)
    ]


def _burst_drives(w_out: np.ndarray, res: ReservoirPass):
    """Yield each step's unclamped bursting readout drive on one pass, from its recorded amplitudes.

    Amplitudes carry fractional bits, so each product is floored on its
    own. The spikes of step t reach the readout at step t+1. Each drive is
    computed from ``w_out`` as it stands when the step is drawn, so a
    learner may change it in between.
    """
    ts, cols = np.nonzero(res.spikes)
    bounds = np.searchsorted(ts, np.arange(-1, res.spikes.shape[0])).tolist()  # step t takes step t-1's spikes
    for start, end in zip(bounds, bounds[1:]):
        terms = w_out[:, cols[start:end]] * res.amplitudes[start:end]
        terms >>= FRAC_BITS
        yield np.add.reduce(terms, axis=1)


def _learning_readout(network: Network, res: ReservoirPass, comp: CompiledNeuron, fits: Fits, label: int,
                      margin: int, on_step, record_potentials: bool = False,
                      state: NeuronState | None = None) -> ReadoutPass:
    """The readout's run on one pass of class ``label`` while ``on_step`` updates ``network.w_out`` in place.

    ``comp`` is the neuron compiled at the pass's ratio, and ``fits`` names
    the sites proven never to clamp at any weight the learner can reach.
    The loop keeps the teacher's tallies: the output weight of the
    ``label`` unit so far and of each rival. The teacher rule acts on a step
    unless the teacher leads every rival by ``margin``, and then only if the
    teacher stayed silent (``potentiate``) or some competitive rival fired
    (``depressed``, those within ``margin`` of the teacher, in index order).
    Only on such a step does it call ``on_step(t, potentiate, depressed)``;
    the weights hold still on every other step.

    Without bursting, the drives of the steps between two calls come in
    blocks, each one int64 product of the pass's spike weights (widened
    once, one step later: the spikes of step t reach the readout at step
    t+1) with the weights as they stand, exact as integer arithmetic is. A
    block takes 1, 2, 4, ... steps while the weights stay put and starts
    over at 1 after a call, so its product serves only steps the call left
    alone. When bursting, :func:`_burst_drives` gives each step's drive as
    it begins. The readout starts at rest, or from a given ``(1, readout)``
    ``state``, which it leaves holding the state after the last step, as the
    array step functions advance theirs.

    The readout's few units step in this one loop on Python ints, since at
    that size a numpy call, or any call, costs more than the arithmetic it
    does. It is the datapath of :func:`~tcsnn.neuron.synapse_step` and
    :func:`~tcsnn.neuron.integrate_fire` written out per unit: the shifter
    decays, the fixed-point products, the fire rule, the soft reset and the
    burst gain. A site that ``fits`` leaves unproven is clamped and counted
    as :func:`~tcsnn.fixedpoint.saturate` does; the burst gain and threshold
    products are always checked, as in :func:`~tcsnn.fixedpoint.fixed_mul`.
    """
    steps, n = res.spikes.shape[0], network.config.num_readout
    order, leaky, bursting = comp.lif.synapse.order, comp.tau_m_plan is not None, comp.spec.bursting
    first, second = order == "first", order == "second"
    q, syn_gain, gain, u_th, n_max = comp.q_fp, comp.syn_gain_fp, comp.gain_fp, comp.u_th_fp, comp.n_max
    check_drive, check_s1, check_s2 = not fits.drive, not fits.s1, not fits.s2
    check_syn, check_gain, check_u = not fits.syn, not fits.gain, not fits.u
    lo, hi = RAW_MIN, RAW_MAX
    k_m, k_s1, k_s2 = (k.tolist() for k in _plan_shifts(comp, steps))
    if bursting:  # a spike weight past the end of the beta**w table takes its last entry
        lut = comp.beta_pow_fp.tolist()
        last = len(lut) - 1
        bursts = map(np.ndarray.tolist, _burst_drives(network.w_out, res))  # each taken as its step begins
    else:
        delivered = np.zeros(res.spikes.shape, dtype=np.int64)  # the spikes of step t reach the readout at step t+1
        delivered[1:] = res.spikes[:-1]
        w_t = network.w_out.T  # a view, so each block takes the weights as they stand
    if state is None:
        state = new_neuron_state((1, n), bursting)
    s1, s2, u = (x[0].tolist() for x in (state.s1, state.s2, state.u))
    g = state.g[0].tolist() if bursting else None
    out = state.prev_out[0].tolist() if bursting else [0] * n
    clamps = 0
    outs = []
    potentials = [] if record_potentials else None
    teacher = rival_max = 0  # the teacher's output weight so far, and the largest rival's
    cum = [0] * n  # each rival's output weight so far; the teacher's entry stays 0

    t, size = 0, 1
    while t < steps:
        if bursting:  # each drawn as its step begins, so a call leaves the rest to come at the new weights
            block = bursts
        else:
            block = delivered[t:t + size].dot(w_t).tolist()
        size *= 2
        for drive in block:
            km, ks1, ks2 = k_m[t], k_s1[t], k_s2[t]
            prev, out = out, [0] * n
            for j, d in enumerate(drive):
                if check_drive and not lo <= d <= hi:
                    d = min(max(d, lo), hi)
                    clamps += 1
                if second:  # a slow decay stage minus a fast rise stage, normalized
                    x = s1[j]
                    x = x - (x >> ks1) + d
                    if check_s1 and not lo <= x <= hi:
                        x = min(max(x, lo), hi)
                        clamps += 1
                    s1[j] = x
                    y = s2[j]
                    y = y - (y >> ks2) + d
                    if check_s2 and not lo <= y <= hi:
                        y = min(max(y, lo), hi)
                        clamps += 1
                    s2[j] = y
                    d = (syn_gain * (y - x)) >> FRAC_BITS
                    if check_syn and not lo <= d <= hi:
                        d = min(max(d, lo), hi)
                        clamps += 1
                elif first:  # a decaying accumulator of q times the drive
                    d = (q * d) >> FRAC_BITS
                    if check_syn and not lo <= d <= hi:
                        d = min(max(d, lo), hi)
                        clamps += 1
                    x = s1[j]
                    x = x - (x >> ks1) + d
                    if check_s1 and not lo <= x <= hi:
                        x = min(max(x, lo), hi)
                        clamps += 1
                    s1[j] = d = x
                thr = u_th
                if bursting:  # scale the gain by beta**w after a weight-w spike, reset it after a silent step
                    w = prev[j]
                    x = (g[j] * lut[min(w, last)]) >> FRAC_BITS if w else SCALE
                    if not lo <= x <= hi:
                        x = min(max(x, lo), hi)
                        clamps += 1
                    g[j] = x
                    thr = (u_th * x) >> FRAC_BITS
                    if not lo <= thr <= hi:
                        thr = min(max(thr, lo), hi)
                        clamps += 1
                    if thr < 1:
                        thr = 1
                v = u[j]
                if leaky:
                    v -= v >> km
                d = (gain * d) >> FRAC_BITS
                if check_gain and not lo <= d <= hi:
                    d = min(max(d, lo), hi)
                    clamps += 1
                v += d
                if check_u and not lo <= v <= hi:
                    v = min(max(v, lo), hi)
                    clamps += 1
                if v >= thr:  # fire the number of thresholds crossed, up to n_max, and subtract them
                    out[j] = w = min(v // thr, n_max)
                    v -= w * thr
                    if j == label:
                        teacher += w
                    else:
                        cum[j] = x = cum[j] + w
                        if x > rival_max:
                            rival_max = x
                u[j] = v
            outs.append(out)
            if record_potentials:
                potentials.append(u.copy())
            t += 1
            if teacher - rival_max < margin:  # outputs are never negative, so rival_max 0 stands for no rival
                # depress only competitive rivals; rows already far behind are left alone so winners do not cycle
                depressed = [j for j, o in enumerate(out) if o and j != label and cum[j] >= teacher - margin]
                potentiate = out[label] == 0
                if potentiate or depressed:
                    on_step(t - 1, potentiate, depressed)
                    size = 1  # the block's later drives were taken at the old weights
                    break

    state.s1[0], state.s2[0], state.u[0] = s1, s2, u
    if bursting:
        state.g[0], state.prev_out[0] = g, out
    shape = (steps, n)
    return ReadoutPass(
        gamma=comp.gamma,
        outs=np.array(outs, dtype=np.int64).reshape(shape),
        saturations=clamps,
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
    return SimulationTrace(reservoir, readout)
