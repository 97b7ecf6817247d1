"""Golden traces: bit-exact fingerprints of small simulations.

Every neuron model runs with every synapse order it allows, at three
compression ratios, each case also as a baseline (gamma 1) run, on a
27-neuron 3x3x3 reservoir driven by 20 Poisson channels for 120 steps. The
readout weights are random and nonzero, so readout delivery is exercised too. Each case is
pinned by a hash of the input, reservoir and readout events, both recorded
potential arrays and the event counters other than ``saturations``, which
is pinned as a plain count beside it. A refactor of the engine must leave
every entry unchanged.

``PYTHONPATH=src python tests/test_golden.py`` prints the table for the current code.
"""

import hashlib
import json

import numpy as np
import pytest

from traces import poisson_encode

from tcsnn.network import LsmConfig, build_lsm, simulate
from tcsnn.neuron import LIFParams, SynapseParams

CHANNELS, STEPS, READOUT = 20, 120, 3
GAMMAS = (1, 4, 16)
ORDERS = {
    "lif": ("zeroth", "first", "second"),
    "iw-lif": ("zeroth", "first", "second"),
    "iow-lif": ("zeroth", "first", "second"),
    "burst-lif": ("zeroth",),
    "iow-burst-lif": ("zeroth",),
}

# (model, synapse order, gamma, mode) -> (hash of events, potentials and counters, saturations)
GOLDEN = {
    ('lif', 'zeroth', 1, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('lif', 'zeroth', 1, 'compressed'): ('55b9afd4a3fda9b3', 0),
    ('lif', 'zeroth', 4, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('lif', 'zeroth', 4, 'compressed'): ('0cefcd9ab713aa9f', 0),
    ('lif', 'zeroth', 16, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('lif', 'zeroth', 16, 'compressed'): ('eeaa8507bafa6afb', 0),
    ('lif', 'first', 1, 'baseline'): ('dcb06c164c7e439f', 0),
    ('lif', 'first', 1, 'compressed'): ('dcb06c164c7e439f', 0),
    ('lif', 'first', 4, 'baseline'): ('dcb06c164c7e439f', 0),
    ('lif', 'first', 4, 'compressed'): ('bc30fad217a899a4', 0),
    ('lif', 'first', 16, 'baseline'): ('dcb06c164c7e439f', 0),
    ('lif', 'first', 16, 'compressed'): ('eeaa8507bafa6afb', 0),
    ('lif', 'second', 1, 'baseline'): ('948668be498025c2', 0),
    ('lif', 'second', 1, 'compressed'): ('948668be498025c2', 0),
    ('lif', 'second', 4, 'baseline'): ('948668be498025c2', 0),
    ('lif', 'second', 4, 'compressed'): ('cfe058092ec82146', 0),
    ('lif', 'second', 16, 'baseline'): ('948668be498025c2', 0),
    ('lif', 'second', 16, 'compressed'): ('313de575ef49db8d', 0),
    ('iw-lif', 'zeroth', 1, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('iw-lif', 'zeroth', 1, 'compressed'): ('55b9afd4a3fda9b3', 0),
    ('iw-lif', 'zeroth', 4, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('iw-lif', 'zeroth', 4, 'compressed'): ('1e654b249f3bc190', 0),
    ('iw-lif', 'zeroth', 16, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('iw-lif', 'zeroth', 16, 'compressed'): ('2a24dd1a032e546c', 0),
    ('iw-lif', 'first', 1, 'baseline'): ('dcb06c164c7e439f', 0),
    ('iw-lif', 'first', 1, 'compressed'): ('dcb06c164c7e439f', 0),
    ('iw-lif', 'first', 4, 'baseline'): ('dcb06c164c7e439f', 0),
    ('iw-lif', 'first', 4, 'compressed'): ('fcdd821928ebab32', 0),
    ('iw-lif', 'first', 16, 'baseline'): ('dcb06c164c7e439f', 0),
    ('iw-lif', 'first', 16, 'compressed'): ('2a24dd1a032e546c', 0),
    ('iw-lif', 'second', 1, 'baseline'): ('948668be498025c2', 0),
    ('iw-lif', 'second', 1, 'compressed'): ('948668be498025c2', 0),
    ('iw-lif', 'second', 4, 'baseline'): ('948668be498025c2', 0),
    ('iw-lif', 'second', 4, 'compressed'): ('a22b5706cb74a2ac', 0),
    ('iw-lif', 'second', 16, 'baseline'): ('948668be498025c2', 0),
    ('iw-lif', 'second', 16, 'compressed'): ('c6e145b661229403', 0),
    ('iow-lif', 'zeroth', 1, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('iow-lif', 'zeroth', 1, 'compressed'): ('55b9afd4a3fda9b3', 0),
    ('iow-lif', 'zeroth', 4, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('iow-lif', 'zeroth', 4, 'compressed'): ('0b3906ca496c9660', 0),
    ('iow-lif', 'zeroth', 16, 'baseline'): ('55b9afd4a3fda9b3', 0),
    ('iow-lif', 'zeroth', 16, 'compressed'): ('715abaec83f3fbf8', 0),
    ('iow-lif', 'first', 1, 'baseline'): ('7de73dcb9c65386a', 0),
    ('iow-lif', 'first', 1, 'compressed'): ('7de73dcb9c65386a', 0),
    ('iow-lif', 'first', 4, 'baseline'): ('7de73dcb9c65386a', 0),
    ('iow-lif', 'first', 4, 'compressed'): ('f1ae9765a8546b67', 0),
    ('iow-lif', 'first', 16, 'baseline'): ('7de73dcb9c65386a', 0),
    ('iow-lif', 'first', 16, 'compressed'): ('715abaec83f3fbf8', 0),
    ('iow-lif', 'second', 1, 'baseline'): ('3f81ad968b38c31d', 0),
    ('iow-lif', 'second', 1, 'compressed'): ('3f81ad968b38c31d', 0),
    ('iow-lif', 'second', 4, 'baseline'): ('3f81ad968b38c31d', 0),
    ('iow-lif', 'second', 4, 'compressed'): ('ed0d36546660e18d', 0),
    ('iow-lif', 'second', 16, 'baseline'): ('3f81ad968b38c31d', 0),
    ('iow-lif', 'second', 16, 'compressed'): ('7f7ea5616f6f694d', 0),
    ('burst-lif', 'zeroth', 1, 'baseline'): ('8593b2397f2faa06', 0),
    ('burst-lif', 'zeroth', 1, 'compressed'): ('8593b2397f2faa06', 0),
    ('burst-lif', 'zeroth', 4, 'baseline'): ('8593b2397f2faa06', 0),
    ('burst-lif', 'zeroth', 4, 'compressed'): ('8b11ab00204c12c6', 0),
    ('burst-lif', 'zeroth', 16, 'baseline'): ('8593b2397f2faa06', 0),
    ('burst-lif', 'zeroth', 16, 'compressed'): ('2102d5986b3ede7c', 0),
    ('iow-burst-lif', 'zeroth', 1, 'baseline'): ('8593b2397f2faa06', 0),
    ('iow-burst-lif', 'zeroth', 1, 'compressed'): ('8593b2397f2faa06', 0),
    ('iow-burst-lif', 'zeroth', 4, 'baseline'): ('8593b2397f2faa06', 0),
    ('iow-burst-lif', 'zeroth', 4, 'compressed'): ('631ef7db118cec3c', 9),
    ('iow-burst-lif', 'zeroth', 16, 'baseline'): ('8593b2397f2faa06', 0),
    # The input channels' burst gain reaches about 16.6 million here, far
    # past the 32-bit register's 32768, and is clamped and counted: 14 more
    # saturations, the same spikes, and reservoir neuron 1's potential
    # differs at steps 5-7. Unclamped, this case gave ('18fde857010a7a4d', 84).
    ('iow-burst-lif', 'zeroth', 16, 'compressed'): ('0b281743ddfc6e9f', 98),
}


def _cases():
    return [
        (model, order, gamma, mode)
        for model, orders in ORDERS.items()
        for order in orders
        for gamma in GAMMAS
        for mode in ("baseline", "compressed")
    ]


def _example():
    rates = np.random.default_rng(1).uniform(0.05, 0.35, CHANNELS)
    return poisson_encode(rates, STEPS, seed=2)


def _network(model, order):
    cfg = LsmConfig(
        num_inputs=CHANNELS,
        reservoir_size=27,
        num_readout=READOUT,
        reservoir_grid=(3, 3, 3),
        seed=3,
        lif=LIFParams(model=model, synapse=SynapseParams(order=order)),
    )
    net = build_lsm(cfg)
    rng = np.random.default_rng(4)
    sign = np.where(rng.random(net.w_out.shape) < 0.75, 1, -1)
    net.w_out[:] = sign * rng.integers(1, 4 << 16, size=net.w_out.shape)
    return net


def fingerprint(model, order, gamma, mode):
    # a baseline run is a run at gamma 1, whatever the case's ratio
    ratio = 1 if mode == "baseline" else gamma
    trace = simulate(_network(model, order), _example(), ratio, record_potentials=True)
    h = hashlib.sha256()
    for arr in (
        trace.events_for("input"),
        trace.events_for("reservoir"),
        trace.events_for("readout"),
        trace.potentials["reservoir"],
        trace.potentials["readout"],
    ):
        arr = np.ascontiguousarray(arr, dtype="<i8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    counters = trace.counters
    saturations = counters.pop("saturations")
    h.update(json.dumps(counters, sort_keys=True).encode())
    return h.hexdigest()[:16], saturations


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: "-".join(map(str, c)))
def test_trace_matches_golden(case):
    assert fingerprint(*case) == GOLDEN[case]


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case!r}: {fingerprint(*case)!r},")
