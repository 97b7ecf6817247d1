"""Liquid-state-machine topology and the deterministic simulation engine.

The network is input channels -> recurrent reservoir -> readout, with fixed
signed power-of-two synapses everywhere except the plastic reservoir->readout
layer. Reservoir and readout share one compiled neuron (one row of
:data:`~tcsnn.neuron.MODELS` at one ratio) and one set of shift schedules,
and one engine runs every model in either mode:

- baseline: raw binary trains, nominal time constants
- compressed: trains merged by the compression ratio, constants scaled
  exactly and realized through shifter schedules

Every spike is delivered as a fixed-point amplitude: its weight (1 for
binary-input models) times its source's burst gain (1.0 unless bursting).
A layer's drive is ``(w @ amplitudes) >> frac_bits``, exact for the fixed
+/- 2**(e + frac_bits) weights. The plastic readout multiplies the integer
spike weights instead, or, when amplitudes carry fractional bits
(bursting), floors each product on its own.

Spikes emitted at step t are delivered at step t+1; external input spikes
are delivered at their own step. All arithmetic is integer fixed point, so
traces are bit-reproducible across runs and machines.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .compress import CompressionConfig, compress_train
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat, SaturationCounter, saturate
from .neuron import (
    MODELS,
    STEP_FUNCTIONS,
    BurstParams,
    CompiledNeuron,
    LIFParams,
    burst_gain_update,
    compile_neuron,
    new_neuron_state,
    synapse_step,
)
from .spike import trains_to_dense

__all__ = [
    "LsmConfig",
    "Network",
    "SimulationTrace",
    "EventCounters",
    "build_lsm",
    "simulate",
    "set_compression_ratio",
    "export_network",
    "import_network",
]


@dataclass(frozen=True)
class LsmConfig:
    """Construction parameters for one liquid-state machine."""

    num_inputs: int
    reservoir_size: int = 135
    num_readout: int = 5
    reservoir_grid: tuple = (3, 3, 15)
    c_ee: float = 0.3
    c_ei: float = 0.2
    c_ie: float = 0.4
    c_ii: float = 0.1
    lambda_dist: float = 2.0
    excitatory_fraction: float = 0.8
    input_fanout: int = 4
    in_exp_range: tuple = (0, 3)  # input weight exponents: |w| in 2**lo .. 2**hi
    in_positive_prob: float = 0.8  # input channels mostly excite
    res_exp_range: tuple = (0, 1)  # recurrent exponents kept small: loop gain < 1
    model: str = "iow-lif"
    seed: int = 0
    lif: LIFParams = field(default_factory=LIFParams)
    burst: BurstParams | None = None
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    fmt: FixedPointFormat = DEFAULT_FORMAT

    def __post_init__(self):
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
        if self.input_fanout > self.reservoir_size:
            raise ValueError("input_fanout exceeds reservoir size")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if MODELS[self.model].bursting and self.lif.synapse.order != "zeroth":
            raise ValueError("bursting models require a zeroth-order synapse")


@dataclass
class Network:
    """Built network: weight matrices are raw fixed-point multipliers.

    Fixed synapses hold +/- 2**(exponent + frac_bits) exactly (signed
    power-of-two weights realized by shifts); absent synapses are zero.
    Readout weights are plastic fixed-point values. ``comp`` is the neuron
    compiled at ``gamma``, shared by reservoir and readout.
    """

    config: LsmConfig
    gamma: int
    w_in: np.ndarray  # (reservoir, inputs)
    w_res: np.ndarray  # (reservoir, reservoir)
    w_out: np.ndarray  # (readout, reservoir), plastic
    excitatory: np.ndarray  # bool per reservoir neuron
    comp: CompiledNeuron = field(init=False, repr=False)

    def __post_init__(self):
        self.comp = _compile(self.config, self.gamma)

    @property
    def fan_in(self) -> np.ndarray:
        """Structural fan-out per input channel."""
        return np.count_nonzero(self.w_in, axis=0)

    @property
    def fan_res(self) -> np.ndarray:
        """Structural fan-out per reservoir neuron (recurrent + full readout)."""
        return np.count_nonzero(self.w_res, axis=0) + self.config.num_readout


def _compile(config: LsmConfig, gamma: int) -> CompiledNeuron:
    return compile_neuron(
        config.model,
        config.lif,
        gamma,
        fmt=config.fmt,
        burst=config.burst,
        beta_pow_max=config.compression.max_gamma,
    )


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
    frac = config.fmt.frac_bits

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
    w_res = np.where(mask, sign * (np.int64(1) << (exponents + frac)), 0).astype(np.int64)

    i_lo, i_hi = config.in_exp_range
    w_in = np.zeros((n, config.num_inputs), dtype=np.int64)
    for ch in range(config.num_inputs):
        targets = rng.choice(n, size=config.input_fanout, replace=False)
        exps = rng.integers(i_lo, i_hi + 1, size=config.input_fanout)
        signs = np.where(rng.random(config.input_fanout) < config.in_positive_prob, 1, -1)
        w_in[targets, ch] = signs * (np.int64(1) << (exps + frac))

    w_out = np.zeros((config.num_readout, n), dtype=np.int64)

    return Network(
        config=config,
        gamma=config.compression.gamma,
        w_in=w_in,
        w_res=w_res,
        w_out=w_out,
        excitatory=excitatory,
    )


def set_compression_ratio(network: Network, gamma: int) -> Network:
    """Reprogram a PTC build to a new ratio.

    All time-constant plans are recompiled for ``gamma``; wiring is kept and
    plastic weights are copied. The result is trace-identical to a fixed
    build constructed at the same ratio.
    """
    cfg = network.config
    if not cfg.compression.programmable:
        raise ValueError("network was not built with a programmable compression ratio")
    if not 1 <= gamma <= cfg.compression.max_gamma:
        raise ValueError(f"gamma {gamma} outside [1, {cfg.compression.max_gamma}]")
    return replace(network, gamma=gamma, w_out=network.w_out.copy())


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


@dataclass
class SimulationTrace:
    """Everything one run produced: spike events, counters, optional
    membrane trajectories. Event arrays have rows (unit_id, timestep, weight)
    ordered by timestep."""

    mode: str
    gamma: int
    timestep_count: int
    input_length: int
    num_inputs: int
    num_reservoir: int
    num_readout: int
    input_events: np.ndarray
    reservoir_events: np.ndarray
    readout_events: np.ndarray
    counters: EventCounters
    potentials: dict | None = None
    _totals: np.ndarray | None = None  # cached readout totals (light runs)

    @property
    def num_neurons(self) -> int:
        return self.num_reservoir + self.num_readout

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

    def readout_totals(self) -> np.ndarray:
        """Total output spike weight per readout neuron."""
        if self._totals is not None:
            return self._totals
        totals = np.zeros(self.num_readout, dtype=np.int64)
        ev = self.readout_events
        if ev.size:
            np.add.at(totals, ev[:, 0], ev[:, 2])
        return totals

    def same_as(self, other: "SimulationTrace", check_potentials: bool = True) -> bool:
        """Bit-exact comparison of spikes (and potentials when recorded)."""
        if self.timestep_count != other.timestep_count:
            return False
        for layer in ("input", "reservoir", "readout"):
            if not np.array_equal(self.events_for(layer), other.events_for(layer)):
                return False
        if check_potentials and self.potentials is not None and other.potentials is not None:
            for key in self.potentials:
                if not np.array_equal(self.potentials[key], other.potentials[key]):
                    return False
        return True


def _events_array(chunks: list) -> np.ndarray:
    if not chunks:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


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


def _input_events(dense_in: np.ndarray) -> np.ndarray:
    """Input spike records (channel, timestep, weight) ordered by timestep."""
    ts, chans = np.nonzero(dense_in.T)
    if ts.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    return np.column_stack((chans, ts, dense_in[chans, ts]))


def _input_amplitudes(dense_in: np.ndarray, comp: CompiledNeuron, sat: SaturationCounter) -> np.ndarray:
    """Fixed-point amplitude of every input spike, shaped (channels, steps).

    Each channel's burst gain evolves with the channel's own firing through
    the same update as a neuron's.
    """
    fmt = comp.fmt
    weights = dense_in if comp.spec.weighted_in else (dense_in > 0).astype(np.int64)
    if not comp.spec.bursting:
        return weights << fmt.frac_bits
    amp = np.empty_like(weights)
    gain = np.full(weights.shape[0], fmt.scale, dtype=np.int64)
    prev = np.zeros(weights.shape[0], dtype=np.int64)
    for t in range(weights.shape[1]):
        gain = burst_gain_update(gain, prev, comp, sat)
        prev = weights[:, t]
        amp[:, t] = gain * prev
    return amp


def simulate(
    network: Network,
    example,
    mode: str = "compressed",
    gamma: int | None = None,
    record_potentials: bool = False,
    record_events: bool = True,
    _learner=None,
) -> SimulationTrace:
    """Run one example through the network and record a full trace.

    ``example`` is a sequence of per-channel BinarySpikeTrains. Baseline
    mode feeds them raw with nominal time constants; compressed mode merges
    them at the network's ratio (or an explicit ``gamma``) with all
    constants rescaled.
    """
    cfg = network.config
    trains = list(example)
    if len(trains) != cfg.num_inputs:
        raise ValueError(f"expected {cfg.num_inputs} channels, got {len(trains)}")
    length = trains[0].length_steps

    if mode == "baseline":
        g = 1
        dense_in = trains_to_dense(trains, length)
    elif mode == "compressed":
        g = network.gamma if gamma is None else gamma
        if not 1 <= g <= cfg.compression.max_gamma:
            raise ValueError(f"gamma {g} outside [1, {cfg.compression.max_gamma}]")
        dense_in = trains_to_dense([compress_train(tr, g) for tr in trains])
    else:
        raise ValueError(f"unknown mode {mode!r}")

    comp = network.comp if g == network.gamma else _compile(cfg, g)

    fmt = cfg.fmt
    frac = fmt.frac_bits
    steps = dense_in.shape[1]
    n_res, n_read = cfg.reservoir_size, cfg.num_readout
    bursting = comp.spec.bursting
    step_fn = STEP_FUNCTIONS[cfg.model]

    sat = SaturationCounter()
    res_state = new_neuron_state(n_res, fmt, bursting)
    read_state = new_neuron_state(n_read, fmt, bursting)
    k_m, k_s1, k_s2 = _plan_shifts(comp, steps)

    input_events = _input_events(dense_in)
    in_ops = int(network.fan_in[input_events[:, 0]].sum()) if input_events.size else 0
    fan_res = network.fan_res
    drive_in_all = (network.w_in @ _input_amplitudes(dense_in, comp, sat)) >> frac

    pending_cols = np.empty(0, dtype=np.int64)  # reservoir spikes awaiting delivery
    pending_w = np.empty(0, dtype=np.int64)
    pending_amp = np.empty(0, dtype=np.int64)
    no_drive_read = np.zeros(n_read, dtype=np.int64)

    res_chunks, read_chunks = [], []
    totals = np.zeros(n_read, dtype=np.int64)
    res_ops = 0
    spike_events = input_events.shape[0]
    pot_res = np.empty((steps, n_res), dtype=np.int64) if record_potentials else None
    pot_read = np.empty((steps, n_read), dtype=np.int64) if record_potentials else None

    for t in range(steps):
        drive_res = drive_in_all[:, t]
        drive_read = no_drive_read
        if pending_cols.size:
            drive_res = drive_res + ((network.w_res[:, pending_cols] @ pending_amp) >> frac)
            if bursting:  # fractional amplitudes, arbitrary plastic weights: floor each product
                drive_read = ((network.w_out[:, pending_cols] * pending_amp) >> frac).sum(axis=1)
            else:
                drive_read = network.w_out[:, pending_cols] @ pending_w
            res_ops += int(fan_res[pending_cols].sum())

        drive_res = saturate(drive_res, fmt, sat)
        drive_read = saturate(drive_read, fmt, sat)

        i_res = synapse_step(res_state, drive_res, comp, k_s1[t], k_s2[t], sat)
        out_res = step_fn(res_state, i_res, comp, k_m[t], sat)

        i_read = synapse_step(read_state, drive_read, comp, k_s1[t], k_s2[t], sat)
        out_read = step_fn(read_state, i_read, comp, k_m[t], sat)

        if _learner is not None:
            _learner.on_step(t, pending_cols, pending_w, out_read)

        res_cols = np.flatnonzero(out_res)
        pending_w = out_res[res_cols]
        spike_events += res_cols.size
        totals += out_read
        if record_events:
            if res_cols.size:
                res_chunks.append(np.column_stack((res_cols, np.full(res_cols.size, t), pending_w)))
            read_cols = np.flatnonzero(out_read)
            if read_cols.size:
                read_chunks.append(np.column_stack((read_cols, np.full(read_cols.size, t), out_read[read_cols])))
                spike_events += read_cols.size
        else:
            spike_events += int((out_read > 0).sum())

        pending_cols = res_cols
        pending_amp = (res_state.g[res_cols] * pending_w) if bursting else (pending_w << frac)

        if record_potentials:
            pot_res[t] = res_state.u
            pot_read[t] = read_state.u

    counters = EventCounters(
        synaptic_ops=in_ops + res_ops,
        synaptic_ops_input=in_ops,
        synaptic_ops_reservoir=res_ops,
        neuron_updates=(n_res + n_read) * steps,
        spike_events=spike_events,
        saturations=sat.count,
    )
    potentials = {"reservoir": pot_res, "readout": pot_read} if record_potentials else None
    return SimulationTrace(
        mode=mode,
        gamma=g,
        timestep_count=steps,
        input_length=length,
        num_inputs=cfg.num_inputs,
        num_reservoir=n_res,
        num_readout=n_read,
        input_events=input_events,
        reservoir_events=_events_array(res_chunks),
        readout_events=_events_array(read_chunks),
        counters=counters,
        potentials=potentials,
        _totals=totals,
    )


# --- network description export / import -------------------------------------

def _decompose_pow2(raw: int, frac: int) -> tuple[int, int]:
    mag = abs(raw) >> frac
    exp = int(mag).bit_length() - 1
    return (1 if raw > 0 else -1), exp


def export_network(network: Network, path):
    """Write a round-trippable structured-text description of the network."""
    cfg = network.config
    frac = cfg.fmt.frac_bits
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tcsnn-network schema_version=1\n")
        fh.write(
            f"config seed={cfg.seed} model={cfg.model} inputs={cfg.num_inputs} "
            f"reservoir={cfg.reservoir_size} readout={cfg.num_readout} "
            f"grid={cfg.reservoir_grid[0]}x{cfg.reservoir_grid[1]}x{cfg.reservoir_grid[2]} "
            f"gamma={network.gamma}\n"
        )
        fh.write("excitatory " + " ".join("1" if e else "0" for e in network.excitatory) + "\n")
        for post, pre in zip(*np.nonzero(network.w_in)):
            sign, exp = _decompose_pow2(int(network.w_in[post, pre]), frac)
            fh.write(f"synapse in {pre} {post} {sign} {exp}\n")
        for post, pre in zip(*np.nonzero(network.w_res)):
            sign, exp = _decompose_pow2(int(network.w_res[post, pre]), frac)
            fh.write(f"synapse res {pre} {post} {sign} {exp}\n")
        for post in range(cfg.num_readout):
            row = " ".join(str(int(v)) for v in network.w_out[post])
            fh.write(f"readout {post} {row}\n")


def import_network(path, config: LsmConfig) -> Network:
    """Rebuild a network from an exported description plus its config.

    The config must describe the same geometry (it carries the neuron and
    compression parameters that the text format does not duplicate).
    """
    frac = config.fmt.frac_bits
    w_in = np.zeros((config.reservoir_size, config.num_inputs), dtype=np.int64)
    w_res = np.zeros((config.reservoir_size, config.reservoir_size), dtype=np.int64)
    w_out = np.zeros((config.num_readout, config.reservoir_size), dtype=np.int64)
    excitatory = np.zeros(config.reservoir_size, dtype=bool)
    gamma = config.compression.gamma

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("tcsnn-network"):
            raise ValueError(f"{path}: not a network description file")
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "config":
                fields = dict(p.split("=", 1) for p in parts[1:])
                gamma = int(fields.get("gamma", gamma))
                if int(fields["inputs"]) != config.num_inputs or int(fields["reservoir"]) != config.reservoir_size:
                    raise ValueError(f"{path}: geometry does not match supplied config")
            elif parts[0] == "excitatory":
                excitatory = np.array([tok == "1" for tok in parts[1:]], dtype=bool)
                if excitatory.size != config.reservoir_size:
                    raise ValueError(
                        f"{path}: excitatory record has {excitatory.size} entries, "
                        f"expected {config.reservoir_size}"
                    )
            elif parts[0] == "synapse":
                _, kind, pre, post, sign, exp = parts
                raw = int(sign) * (1 << (int(exp) + frac))
                if kind == "in":
                    w_in[int(post), int(pre)] = raw
                else:
                    w_res[int(post), int(pre)] = raw
            elif parts[0] == "readout":
                post = int(parts[1])
                w_out[post] = np.array([int(v) for v in parts[2:]], dtype=np.int64)
            else:
                raise ValueError(f"{path}: unknown record {parts[0]!r}")

    return Network(
        config=config,
        gamma=gamma,
        w_in=w_in,
        w_res=w_res,
        w_out=w_out,
        excitatory=excitatory,
    )
