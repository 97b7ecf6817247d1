import hashlib

import numpy as np
import pytest

from tcsnn.compress import CompressionConfig
from tcsnn.config import ExperimentConfig
from tcsnn.fixedpoint import DEFAULT_FORMAT, SaturationCounter
from tcsnn.network import LsmConfig, build_lsm, export_network, import_network, set_compression_ratio, simulate
from tcsnn.neuron import BurstParams, LIFParams, SynapseParams, burst_gain_update, compile_neuron
from tcsnn.spike import poisson_encode


def small_config(**overrides):
    fields = dict(num_inputs=6, reservoir_size=27, num_readout=3, reservoir_grid=(3, 3, 3), seed=5,
                  compression=CompressionConfig(gamma=4))
    fields.update(overrides)
    return LsmConfig(**fields)


def test_export_import_round_trip(tmp_path):
    cfg = small_config()
    net = build_lsm(cfg)
    net.w_out[:] = np.random.default_rng(0).integers(-(4 << 16), 4 << 16, size=net.w_out.shape)
    path = tmp_path / "net.txt"
    export_network(net, path)
    back = import_network(path, cfg)
    assert back.gamma == net.gamma
    for name in ("w_in", "w_res", "w_out", "excitatory"):
        assert np.array_equal(getattr(back, name), getattr(net, name)), name


def test_import_rejects_short_excitatory_record(tmp_path):
    cfg = small_config()
    path = tmp_path / "net.txt"
    export_network(build_lsm(cfg), path)
    lines = path.read_text().splitlines()
    lines = [" ".join(line.split()[:-1]) if line.startswith("excitatory") else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="excitatory"):
        import_network(path, cfg)


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        small_config(model="izhikevich")


def test_input_burst_gain_clamp_is_counted():
    lif = LIFParams(synapse=SynapseParams(order="zeroth"))
    comp = compile_neuron("iow-burst-lif", lif, 16, burst=BurstParams(beta=1.5))
    sat = SaturationCounter()
    gain = np.full(2, DEFAULT_FORMAT.scale, dtype=np.int64)
    prev = np.array([16, 0])  # channel 0 fires weight 16 every step, channel 1 is silent
    for _ in range(3):
        gain = burst_gain_update(gain, prev, comp, sat)
    assert gain[0] == DEFAULT_FORMAT.raw_max  # 1.5**48 is far past the register
    assert gain[1] == DEFAULT_FORMAT.scale
    assert sat.count == 2  # clamped on the second and third update


def test_documented_input_gain_saturation():
    # The default task's example 99 drives one input channel's burst gain to
    # about 37,877, past the 32-bit register's 32,768. Clamping it changes no
    # spike and no potential, and adds one to the saturation count (49 -> 50).
    lsm = LsmConfig(model="iow-burst-lif", lif=LIFParams(synapse=SynapseParams(order="zeroth")), burst=BurstParams())
    cfg = ExperimentConfig(lsm=lsm)
    dataset = cfg.make_dataset()
    net = build_lsm(cfg.make_lsm_config(dataset, 16))
    trace = simulate(net, dataset.examples[99][0], mode="compressed", record_potentials=True)
    h = hashlib.sha256()
    for arr in (trace.reservoir_events, trace.readout_events, trace.potentials["reservoir"], trace.potentials["readout"]):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    assert h.hexdigest()[:16] == "75b7201119139f9e"
    assert trace.counters.saturations == 50


def test_reprogrammed_ratio_matches_fixed_build():
    example = poisson_encode(np.full(6, 0.3), 60, seed=7)
    ptc = build_lsm(small_config(compression=CompressionConfig(gamma=1, programmable=True)))
    ftc = build_lsm(small_config(compression=CompressionConfig(gamma=4, programmable=True)))
    moved = set_compression_ratio(ptc, 4)
    assert moved.comp.gamma == 4
    a = simulate(moved, example, record_potentials=True)
    b = simulate(ftc, example, record_potentials=True)
    assert a.same_as(b) and a.counters == b.counters
