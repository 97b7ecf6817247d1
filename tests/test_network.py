import hashlib

import numpy as np
import pytest
from traces import to_fixed

from tcsnn.config import ExperimentConfig
from tcsnn.fixedpoint import RAW_MAX, SCALE
from tcsnn.network import LsmConfig, build_lsm, simulate
from tcsnn.neuron import LIFParams, SynapseParams, burst_gain_update, compile_neuron


def small_config(**overrides):
    fields = dict(num_inputs=6, reservoir_size=27, num_readout=3, reservoir_grid=(3, 3, 3), seed=5)
    fields.update(overrides)
    return LsmConfig(**fields)


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        small_config(lif=LIFParams(model="izhikevich"))


def test_input_burst_gain_clamp_is_counted():
    comp = compile_neuron(LIFParams(model="iow-burst-lif", synapse=SynapseParams(order="zeroth")), 16)
    sat = np.zeros(1, dtype=np.int64)
    gain = np.full(2, SCALE, dtype=np.int64)
    prev = np.array([16, 0])  # channel 0 fires weight 16 every step, channel 1 is silent
    for _ in range(3):
        gain = burst_gain_update(gain, prev, comp, sat)
    assert gain[0] == RAW_MAX  # 1.5**48 is far past the register
    assert gain[1] == SCALE
    assert sat.tolist() == [2]  # clamped on the second and third update


def test_beta_table_covers_every_input_weight():
    # at gamma 32 an input channel emits weights up to 32, so a weight-20
    # spike scales its gain by beta**20, not by the table's last power
    comp = compile_neuron(LIFParams(model="iow-burst-lif", synapse=SynapseParams(order="zeroth")), 32)
    gain = burst_gain_update(np.full(1, SCALE, dtype=np.int64), np.array([20]), comp)
    assert gain[0] == to_fixed(1.5**20) == 217_924_025


def test_documented_input_gain_saturation():
    # The default task's example 99 drives one input channel's burst gain to
    # about 37,877, past the 32-bit register's 32,768. Clamping it changes no
    # spike and no potential, and adds one to the saturation count (49 -> 50).
    lsm = LsmConfig(lif=LIFParams(model="iow-burst-lif", synapse=SynapseParams(order="zeroth")))
    cfg = ExperimentConfig(lsm=lsm)
    dataset = cfg.make_dataset()
    net = build_lsm(cfg.make_lsm_config(dataset))
    trace = simulate(net, dataset.row(99), 16, record_potentials=True)
    h = hashlib.sha256()
    for arr in (trace.events_for("reservoir"), trace.events_for("readout"), trace.potentials["reservoir"],
                trace.potentials["readout"]):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    assert h.hexdigest()[:16] == "75b7201119139f9e"
    assert trace.counters["saturations"] == 50

