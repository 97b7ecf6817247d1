"""The traced benchmark still fits the package it traces.

``perfbench/tracer.py`` wraps tcsnn's bindings from outside ``src/`` and
reads some arguments of the calls it wraps: the ratio of every ``simulate``
call by keyword, that of ``_run_single`` as its second positional argument.
A tiny experiment runs here under the installed tracer, with a pool of two
workers, and must pass the tracer's self-check (every wrapped binding
fired, every ratio came back from a worker) and yield its per-layer
metrics. It runs with learning, as the ``train`` workload does, and without,
as ``sweep`` does: then only the frozen evaluation and energy runs call
``simulate``, and the metrics need both. It runs in a subprocess because the
tracer patches module bindings for the whole process.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG = """\
schema_version = 1
seed = 3
model = iow-lif
gammas = 1 4
epochs = 1
workers = 2
dataset.classes = 3
dataset.channels = 20
dataset.steps = 40
dataset.jitter = 2
dataset.examples_per_class = 5
lsm.reservoir_size = 27
lsm.grid = 3 3 3
"""

SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, layer_metrics
import tcsnn.cli

tracer = Tracer(sys.argv[2])
tracer.install("iow-lif", epochs=int(sys.argv[4]))
config = tcsnn.cli.load_experiment_config(sys.argv[3])
reports = tcsnn.cli.run_experiment(config)
records = tracer.gather()
tracer.self_check(records, config.gammas, config.workers)
layers, per_gamma = layer_metrics(tracer, records, [r.counters for r in reports], config.workers)
print(json.dumps({"layers": layers, "per_gamma": per_gamma}))
"""


# 3 classes x 5 examples split 12 / 3: per ratio, 12 learning runs per
# epoch, then 3 evaluation and 3 energy runs of the frozen readout; one
# compression per example whose reservoir runs (training ones only with
# epochs) and ratio
@pytest.mark.parametrize("epochs, simulate_calls, compress_calls",
                         [(1, 2 * (12 + 3 + 3), 2 * (12 + 3)), (0, 2 * (3 + 3), 2 * 3)])
def test_traced_run_passes_the_self_check(tmp_path, epochs, simulate_calls, compress_calls):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("epochs = 1", f"epochs = {epochs}") + f"out_dir = {tmp_path / 'out'}\n")
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), str(trace_dir), str(cfg), str(epochs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    layers, per_gamma = result["layers"], result["per_gamma"]
    assert layers["network.simulate.calls"] == simulate_calls
    assert layers["compress.compress_train.calls"] == compress_calls
    assert layers["spike.make_dataset.calls"] == 1
    assert {"cli.run_single_s.g1", "cli.run_single_s.g4"} <= per_gamma.keys()
