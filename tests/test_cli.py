import concurrent.futures
import json
import os

import pytest

import tcsnn.learning
import tcsnn.network
from tcsnn.cli import main
import tcsnn.cli
from tcsnn.config import ExperimentConfig
from tcsnn.metrics import RunReport
from tcsnn.spike import SpikeDataset, load_event_file, synthetic_task

CONFIG = """\
schema_version = 1
seed = 3
model = iow-lif
gammas = 1 4
epochs = 1
dataset.classes = 3
dataset.channels = 20
dataset.steps = 40
dataset.jitter = 2
dataset.examples_per_class = 5
lsm.reservoir_size = 27
lsm.grid = 3 3 3
"""
OUTPUTS = ("run_g1.json", "run_g4.json", "summary.csv")


def run(tmp_path, text, out):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / out)])


def test_run_succeeds_and_rerun_is_byte_identical(tmp_path):
    assert run(tmp_path, CONFIG, "a") == 0
    assert run(tmp_path, CONFIG, "b") == 0
    for name in OUTPUTS:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_unknown_key_exits_1(tmp_path, capsys):
    assert run(tmp_path, CONFIG + "lsm.reservoir = 27\n", "out") == 1
    assert "unknown key 'lsm.reservoir'" in capsys.readouterr().err


def test_missing_event_file_exits_2(tmp_path, capsys):
    text = CONFIG + f"dataset.kind = event_file\ndataset.path = {tmp_path / 'absent.events'}\n"
    assert run(tmp_path, text, "out") == 2
    assert "event file not found" in capsys.readouterr().err


def test_malformed_event_file_exits_2_with_its_line(tmp_path, capsys):
    events = tmp_path / "bad.events"
    events.write_text("channels=20 classes=3 steps=40\nexample label=1\n4 7\n4 7\n")
    assert run(tmp_path, CONFIG + f"dataset.kind = event_file\ndataset.path = {events}\n", "out") == 2
    assert capsys.readouterr().err == f"error: {events}:4: non-monotonic timestamp 7 on channel 4\n"


def test_empty_test_split_exits_2(tmp_path, capsys):
    # 3 examples, and round(0.9 * 3) = 3 of them train
    text = CONFIG.replace("dataset.examples_per_class = 5", "dataset.examples_per_class = 1")
    assert run(tmp_path, text + "learning.train_fraction = 0.9\n", "out") == 2
    assert "test split is empty" in capsys.readouterr().err


def test_empty_training_split_exits_2(tmp_path, capsys):
    # 15 examples, and round(0.01 * 15) = 0 of them train
    assert run(tmp_path, CONFIG + "learning.train_fraction = 0.01\n", "out") == 2
    assert "training split is empty" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.csv").exists()


RESOURCES = "resources.baseline.lut = 100\nresources.baseline.ff = 50\nresources.g4.lut = 80\nresources.g4.ff = 40\n"


# a baseline without loss, or without energy, has no normalized ATEL; every report is still written
@pytest.mark.parametrize("baseline_accuracy, energy, atel_cells",
                         [(100.0, 100.0, ["", ""]), (90.0, 0.0, ["", ""]), (90.0, 100.0, ["100", "10"])])
def test_perfect_baseline_leaves_the_atel_cells_empty(tmp_path, monkeypatch, baseline_accuracy, energy, atel_cells):
    def scored(config, gamma, dataset):
        return RunReport(gamma=gamma, model=config.lsm.lif.model, seed=config.seed,
                         accuracy=baseline_accuracy if gamma == 1 else 80.0, timestep_count=40 // gamma,
                         input_length=40, speedup=float(gamma), counters={}, energy=energy / gamma)

    monkeypatch.setattr(tcsnn.cli, "_run_single", scored)
    assert run(tmp_path, CONFIG + RESOURCES, "out") == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == atel_cells
    for gamma, cell in zip((1, 4), atel_cells):
        report = json.loads((tmp_path / "out" / f"run_g{gamma}.json").read_text())
        assert (report["atel_percent"] is None) == (cell == "")


# CONFIG has 3 classes x 5 examples, split 12 train / 3 test, and two ratios;
# the training and test examples of a ratio run in one batch
@pytest.mark.parametrize("epochs, examples_per_ratio", [(3, 12 + 3), (0, 3)])
def test_reservoir_runs_once_per_example_and_ratio(tmp_path, monkeypatch, epochs, examples_per_ratio):
    real = tcsnn.network.run_reservoir
    runs = []

    def counting(network, examples, *args, **kwargs):
        examples = list(examples)
        runs.append(len(examples))
        return real(network, examples, *args, **kwargs)

    for module in (tcsnn.network, tcsnn.learning):  # every module that binds it
        monkeypatch.setattr(module, "run_reservoir", counting)
    assert run(tmp_path, CONFIG.replace("epochs = 1", f"epochs = {epochs}"), "out") == 0
    assert sum(runs) == examples_per_ratio * 2
    assert len(runs) == 2  # one batch per ratio


# per ratio: one learning run per epoch and training example, alone, then
# one frozen run over the 3 test examples, which serves evaluation and energy
@pytest.mark.parametrize("epochs", [2, 0])
def test_frozen_readout_runs_once_per_use_and_ratio(tmp_path, monkeypatch, epochs):
    frozen_run, learning_run = tcsnn.network.run_readout, tcsnn.learning._ReadoutLearner.run
    runs = []

    def counting_frozen(network, passes, gamma, record_potentials=False):
        passes = list(passes)
        runs.append((len(passes), False))
        return frozen_run(network, passes, gamma, record_potentials)

    def counting_learning(learner, res, label, record_potentials=False):
        runs.append((1, True))
        return learning_run(learner, res, label, record_potentials)

    for module in (tcsnn.network, tcsnn.learning):  # every module that binds it
        monkeypatch.setattr(module, "run_readout", counting_frozen)
    monkeypatch.setattr(tcsnn.learning._ReadoutLearner, "run", counting_learning)
    assert run(tmp_path, CONFIG.replace("epochs = 1", f"epochs = {epochs}"), "out") == 0
    assert sorted(runs) == sorted([(1, True)] * epochs * 12 * 2 + [(3, False)] * 2)


def test_dataset_is_made_once_per_experiment(tmp_path, monkeypatch):
    real = ExperimentConfig.make_dataset
    calls = tmp_path / "calls"  # a file, so that calls in pool workers count too

    def counting(self):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(self)

    monkeypatch.setattr(ExperimentConfig, "make_dataset", counting)
    for workers in (1, 2):
        calls.write_text("")
        assert run(tmp_path, CONFIG + f"workers = {workers}\n", f"w{workers}") == 0
        assert len(calls.read_text().split()) == 1, workers
    for name in OUTPUTS:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name


def test_huge_burst_constant_clamps_and_counts(tmp_path):
    # beta**k passes float range at beta = 1e30 (this exited 2 mid-run); from
    # k = 1 on, every power is past the register at 1e10 already, so both
    # runs clamp the same gains and count the same clamps
    burst = CONFIG.replace("model = iow-lif", "model = iow-burst-lif") + "neuron.synapse_order = zeroth\n"
    assert run(tmp_path, burst + "neuron.beta = 1e30\n", "huge") == 0
    assert run(tmp_path, burst + "neuron.beta = 1e10\n", "large") == 0
    for name in OUTPUTS:
        assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "large" / name).read_bytes(), name
    report = json.loads((tmp_path / "huge" / "run_g1.json").read_text())
    assert report["counters"]["saturations"] > 0


class InlinePool:
    """Stands in for the process pool: records its size and every task's
    arguments, starts its one worker in this process, runs each task at once."""

    def __init__(self, sizes, submitted, max_workers, initializer=None, initargs=()):
        sizes.append(max_workers)
        self.submitted = submitted
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


# (workers, gammas, pool size): never more processes than ratios, none for one
@pytest.mark.parametrize("workers, gammas, pool", [(1, "1 4", []), (2, "1 4", [2]), (10**6, "1 4", [2]),
                                                    (3, "1 2 4 8", [3]), (8, "4", [])])
def test_pool_is_sized_by_workers_and_ratios(tmp_path, monkeypatch, workers, gammas, pool):
    sizes, submitted = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, **kwargs: InlinePool(sizes, submitted, max_workers, **kwargs))
    text = CONFIG.replace("gammas = 1 4", f"gammas = {gammas}") + f"workers = {workers}\n"
    assert run(tmp_path, text, "out") == 0
    assert sizes == pool
    # a task carries its config and ratio; the workers got the dataset at start
    assert len(submitted) == (len(gammas.split()) if pool else 0)
    assert not any(isinstance(arg, SpikeDataset) for args in submitted for arg in args)
    assert len([f for f in os.listdir(tmp_path / "out") if f.startswith("run_g")]) == len(gammas.split())


def test_zero_workers_on_the_command_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    assert main(["run", "--config", str(cfg), "--workers", "0", "--out", str(tmp_path / "out")]) == 1
    assert "workers must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_raster_writes_the_baseline_and_the_ratio(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["raster", "--config", str(cfg), "--example", "2", "--gamma", "4", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["raster_ex2_baseline.csv", "raster_ex2_g4.csv"]
    assert main(["raster", "--config", str(cfg), "--example", "2", "--gamma", "17", "--out", str(out)]) == 1
    assert "gamma 17 outside [1, 16]" in capsys.readouterr().err


# each rejection's exit code and message; the config is exp.cfg, whose line 13
# is the first line past CONFIG. The synapse with tau_s 1.3 and 1.6 has a q/peak
# gain past the register at gamma 16: raster at that ratio is rejected as a run is
RUN = ("run",)
SHORT_SYNAPSE = CONFIG.replace("gammas = 1 4", "gammas = 1") + "neuron.tau_s1 = 1.3\nneuron.tau_s2 = 1.6\n"
Q_PEAK = "synaptic gain q/peak 6.54159e+06 at gamma 16 does not fit the 32-bit fixed-point format"
REJECTIONS = [
    pytest.param(None, RUN, 1, "config error: config file not found: exp.cfg", id="missing-config"),
    pytest.param(CONFIG + "lsm.grid 3 3 3\n", RUN, 1, "config error: exp.cfg:13: expected 'key = value'",
                 id="no-equals"),
    pytest.param(CONFIG.encode().replace(b"seed = 3", b"seed = 3  # \xff"), RUN, 1,
                 "config error: exp.cfg:2: not UTF-8 text", id="not-utf-8"),
    pytest.param(CONFIG + "seed = 4\n", RUN, 1, "config error: exp.cfg:13: duplicate key 'seed'", id="duplicate-key"),
    pytest.param(CONFIG.replace("schema_version = 1\n", ""), RUN, 1, "config error: exp.cfg: missing schema_version",
                 id="no-schema-version"),
    pytest.param(CONFIG.replace("schema_version = 1", "schema_version = 2"), RUN, 1,
                 "config error: exp.cfg:1: unsupported schema_version 2", id="schema-version-2"),
    pytest.param(CONFIG + "dataset.kind = bogus\n", RUN, 1,
                 "config error: exp.cfg:13: dataset.kind: dataset.kind must be synthetic or event_file, got 'bogus'",
                 id="dataset-kind"),
    pytest.param(CONFIG + "dataset.kind = event_file\n", RUN, 1,
                 "config error: exp.cfg:13: dataset.kind: dataset.kind = event_file requires dataset.path",
                 id="event-file-without-path"),
    pytest.param(CONFIG + "resources.baseline.lut = -1\nresources.baseline.ff = 5\n", RUN, 1,
                 "config error: exp.cfg:13: resources: resource counts must be >= 0", id="negative-lut"),
    pytest.param(CONFIG + "resources.baseline.lut = 0\nresources.baseline.ff = 0\n", RUN, 1,
                 "config error: exp.cfg:13: resources: baseline resources must give a positive area (ff + 2 lut)",
                 id="baseline-without-area"),
    pytest.param(CONFIG + "lsm.lambda = 0\n", RUN, 1,
                 "config error: exp.cfg:13: lsm.lambda: lambda_dist must be positive", id="lambda-0"),
    pytest.param(CONFIG + "lsm.excitatory_fraction = 1\n", RUN, 1,
                 "config error: exp.cfg:13: lsm.excitatory_fraction: excitatory_fraction must be in (0, 1)",
                 id="all-excitatory"),
    pytest.param(CONFIG + "neuron.q = inf\n", RUN, 1, "config error: exp.cfg:13: neuron.q: q must be finite",
                 id="infinite-q"),
    pytest.param(CONFIG + "neuron.r = -inf\n", RUN, 1, "config error: exp.cfg:13: neuron.r: R must be finite",
                 id="infinite-r"),
    pytest.param(CONFIG + "neuron.n_max = 0\n", RUN, 1, "config error: exp.cfg:13: neuron.n_max: n_max must be >= 1",
                 id="n-max-0"),
    pytest.param(CONFIG + "learning.w_min = 3\nlearning.w_max = 2\n", RUN, 1,
                 "config error: exp.cfg:13: learning.w_min: w_min must not exceed w_max, and both must be finite",
                 id="w-min-over-w-max"),
    pytest.param(CONFIG + "learning.train_fraction = 1.0\n", RUN, 1,
                 "config error: exp.cfg:13: learning.train_fraction: train_fraction must be in (0, 1), got 1.0",
                 id="all-training"),
    pytest.param(CONFIG, ("raster", "--example", "99", "--gamma", "4"), 1,
                 "config error: example index 99 out of range [0, 15)", id="raster-example-99"),
    pytest.param(SHORT_SYNAPSE, ("raster", "--example", "2", "--gamma", "16"), 1, f"config error: {Q_PEAK}",
                 id="raster-ratio-past-the-register"),
    pytest.param(SHORT_SYNAPSE.replace("gammas = 1", "gammas = 1 16"), RUN, 1,
                 f"config error: exp.cfg:13: neuron.tau_s1: {Q_PEAK}", id="run-ratio-past-the-register"),
    pytest.param(CONFIG + "dataset.kind = event_file\ndataset.path = empty.events\n", RUN, 2,
                 "error: dataset is empty", id="header-only-event-file"),
    pytest.param(CONFIG + "lsm.readout = 2\n", RUN, 2, "error: more classes than readout neurons",
                 id="fewer-readouts-than-classes"),
]


@pytest.mark.parametrize("text, command, code, message", REJECTIONS)
def test_rejection_exits_with_its_code_and_message(tmp_path, monkeypatch, capsys, text, command, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.events").write_text("channels=20 classes=3 steps=40\n")
    if text is not None:
        (tmp_path / "exp.cfg").write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main([*command, "--config", "exp.cfg", "--out", "out"]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out").exists()


GEN = ["gen-dataset", "--classes", "3", "--channels", "4", "--steps", "20", "--seed", "6", "--jitter", "1"]


def test_gen_dataset_writes_the_synthetic_task(tmp_path):
    path = tmp_path / "events.txt"
    assert main(GEN + ["--examples-per-class", "2", "--out", str(path)]) == 0
    assert load_event_file(path) == synthetic_task(3, 4, 20, 1, 2, seed=6)


def test_run_from_the_generated_event_file_equals_the_synthetic_run(tmp_path):
    # CONFIG's task, written by gen-dataset and read back from the file
    events = tmp_path / "task.events"
    gen = ["gen-dataset", "--classes", "3", "--channels", "20", "--steps", "40", "--seed", "3", "--jitter", "2"]
    assert main(gen + ["--examples-per-class", "5", "--out", str(events)]) == 0
    assert run(tmp_path, CONFIG, "synthetic") == 0
    assert run(tmp_path, CONFIG + f"dataset.kind = event_file\ndataset.path = {events}\n", "event_file") == 0
    for name in OUTPUTS:
        assert (tmp_path / "synthetic" / name).read_bytes() == (tmp_path / "event_file" / name).read_bytes(), name


@pytest.mark.parametrize("flag, value, message", [
    ("--examples-per-class", "0", "examples_per_class must be >= 1, got 0"),
    ("--jitter", "20", "jitter_steps must be in [0, length_steps = 20), got 20"),
    ("--steps", "0", "length_steps must be >= 1, got 0"),
    ("--classes", "1", "num_classes must be >= 2, got 1"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_gen_dataset_rejects_bad_arguments_before_writing(tmp_path, capsys, flag, value, message):
    path = tmp_path / "events.txt"
    assert main(GEN + ["--out", str(path), flag, value]) == 1  # the last value of a flag counts
    assert message in capsys.readouterr().err
    assert not path.exists()
