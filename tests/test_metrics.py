from dataclasses import replace

import numpy as np
import pytest

from tcsnn.compress import CompressionConfig
from tcsnn.metrics import AtelInputs, atel, binned_raster_distance, spike_statistics
from tcsnn.network import LsmConfig, build_lsm, simulate
from tcsnn.spike import poisson_encode


def inputs(accuracy, lut=100, ff=50, runtime=10.0, energy=20.0):
    return AtelInputs(lut_count=lut, ff_count=ff, runtime=runtime, energy=energy, accuracy=accuracy)


def test_identical_design_scores_100():
    assert atel(inputs(80.0), inputs(80.0)) == pytest.approx(100.0)


def test_perfect_accuracy_accepted():
    assert inputs(100.0).loss == 0.0


def test_design_without_loss_scores_zero():
    assert atel(inputs(100.0, runtime=5.0), inputs(90.0)) == 0.0


def test_perfect_baseline_rejected():
    with pytest.raises(ValueError, match="undefined"):
        atel(inputs(90.0), inputs(100.0))


def test_accuracy_out_of_range_rejected():
    with pytest.raises(ValueError):
        inputs(100.5)
    with pytest.raises(ValueError):
        inputs(-1.0)



def traces(gamma):
    """Baseline and compressed runs of one example on a small network."""
    cfg = LsmConfig(num_inputs=6, reservoir_size=27, num_readout=3, reservoir_grid=(3, 3, 3), seed=2,
                    compression=CompressionConfig(gamma=gamma))
    net = build_lsm(cfg)
    example = poisson_encode(np.full(6, 0.3), 64, seed=4)
    return simulate(net, example, mode="baseline"), simulate(net, example, mode="compressed", gamma=gamma)


@pytest.mark.parametrize("gamma", [2, 4])
def test_input_raster_distance_is_zero_by_construction(gamma):
    base, comp = traces(gamma)
    assert base.input_events.size
    assert binned_raster_distance(base, comp, gamma, layer="input") == 0.0
    assert binned_raster_distance(base, comp, gamma, layer="reservoir") > 0.0


def test_identical_traces_are_at_distance_zero():
    base, _ = traces(2)
    for layer in ("input", "reservoir", "readout"):
        assert binned_raster_distance(base, base, 1, layer=layer) == 0.0


def test_raster_distance_rejects_layer_size_mismatch():
    base, _ = traces(2)
    wider = replace(base, num_reservoir=base.num_reservoir + 1)
    with pytest.raises(ValueError, match="unit counts differ"):
        binned_raster_distance(base, wider, 1)


@pytest.mark.parametrize("gamma", [2, 4])
def test_spike_statistics_total_matches_counter(gamma):
    for trace in traces(gamma):
        stats = spike_statistics(trace)
        assert stats.total_events == trace.counters.spike_events
        assert stats.total_weight == sum(stats.per_layer_weight.values())
