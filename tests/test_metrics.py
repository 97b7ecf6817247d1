import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from traces import poisson_encode

from tcsnn.compress import compress_train
from tcsnn.metrics import AtelInputs, atel, binned_raster_distance, spike_statistics
from tcsnn.network import LsmConfig, build_lsm, run_reservoir, simulate
from tcsnn.neuron import LIFParams


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



EXAMPLE = poisson_encode(np.full(6, 0.3), 64, seed=4)


@functools.cache
def network(reservoir_size=27, grid=(3, 3, 3), channels=6, model="iow-lif"):
    return build_lsm(LsmConfig(num_inputs=channels, reservoir_size=reservoir_size, num_readout=3, reservoir_grid=grid,
                               lif=LIFParams(model=model), seed=2))


def traces(gamma):
    """Baseline and compressed runs of one example on a small network."""
    net = network()
    return simulate(net, EXAMPLE, 1), simulate(net, EXAMPLE, gamma)


@settings(max_examples=150)
@given(
    channels=st.integers(1, 8),
    steps=st.integers(1, 80),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.integers(1, 16),
    batch=st.integers(1, 3),
    model=st.sampled_from(["iow-lif", "lif"]),  # inputs weighted in, and delivered as 1
)
def test_input_layer_keeps_every_spike_at_every_ratio(channels, steps, density, seed, gamma, batch, model):
    # every row of a batch, at each place in it, keeps its compressed spikes in its input layer;
    # rows after the first may be of another raw length that compresses to as many steps
    rng = np.random.default_rng(seed)
    windows = -(-steps // gamma)
    lengths = [steps, *rng.integers((windows - 1) * gamma + 1, windows * gamma + 1, size=batch - 1)]
    rows = [rng.random((channels, length)) < density for length in lengths]
    net = network(channels=channels, model=model)
    for row, res in zip(rows, run_reservoir(net, rows, gamma)):
        comp, base = simulate(net, row, gamma, reservoir=res), simulate(net, row, 1)
        assert np.array_equal(comp.layer("input"), compress_train(row, gamma).T)
        assert comp.layer("input").sum() == row.sum()
        assert binned_raster_distance(base, comp, gamma, layer="input") == 0.0


@pytest.mark.parametrize("gamma", [2, 4])
def test_input_raster_distance_is_zero_by_construction(gamma):
    base, comp = traces(gamma)
    assert base.events_for("input").size
    assert binned_raster_distance(base, comp, gamma, layer="input") == 0.0
    assert binned_raster_distance(base, comp, gamma, layer="reservoir") > 0.0


def test_identical_traces_are_at_distance_zero():
    base, _ = traces(2)
    for layer in ("input", "reservoir", "readout"):
        assert binned_raster_distance(base, base, 1, layer=layer) == 0.0


@pytest.mark.parametrize("gamma", [1, 2, 4])
@pytest.mark.parametrize("layer", ["input", "reservoir"])
def test_raster_distance_is_the_l1_of_windowed_event_weights(layer, gamma):
    # against another example's run, so that the windows differ both ways at every ratio
    def windowed(trace, width):
        counts = np.zeros((trace.layer(layer).shape[1], -(-trace.timestep_count // width)), dtype=np.int64)
        events = trace.events_for(layer)
        np.add.at(counts, (events[:, 0], events[:, 1] // width), events[:, 2])
        return counts

    net = network()
    base, comp = simulate(net, EXAMPLE, 1), simulate(net, poisson_encode(np.full(6, 0.3), 64, seed=5), gamma)
    want_base, want_comp = windowed(base, gamma), windowed(comp, 1)
    want = float(np.abs(want_base - want_comp).sum() / want_base.sum())
    assert binned_raster_distance(base, comp, gamma, layer=layer) == want


def test_raster_distance_rejects_a_baseline_binned_at_another_ratio():
    base, comp = traces(4)
    with pytest.raises(ValueError, match="binned baseline has 32 windows but compressed trace has 16 steps"):
        binned_raster_distance(base, comp, 2)


def test_raster_distance_rejects_layer_size_mismatch():
    base, _ = traces(2)
    wider = simulate(network(reservoir_size=36, grid=(3, 3, 4)), EXAMPLE, 1)
    with pytest.raises(ValueError, match="unit counts differ"):
        binned_raster_distance(base, wider, 1)


@pytest.mark.parametrize("gamma", [2, 4])
def test_spike_statistics_total_matches_counter(gamma):
    for trace in traces(gamma):
        stats = spike_statistics(trace)
        assert stats.total_events == trace.counters["spike_events"]
        assert stats.total_weight == sum(stats.per_layer_weight.values())


@pytest.mark.parametrize("gamma", [2, 4])
def test_spike_statistics_per_neuron_tallies_sum_to_the_totals(gamma):
    for trace in traces(gamma):
        stats = spike_statistics(trace)
        assert stats.per_neuron_weight.keys() == stats.per_layer_weight.keys()
        assert stats.per_layer_weight["reservoir"] > 0
        for layer, weights in stats.per_neuron_weight.items():
            assert weights.sum() == stats.per_layer_weight[layer], layer
        assert sum(int(counts.sum()) for counts in stats.per_neuron_count.values()) == stats.total_events
