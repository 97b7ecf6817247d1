import pytest

from tcsnn.cli import main
from tcsnn.config import KEYS, ExperimentConfig, field_type, load_experiment_config

# key -> (value text, where it must land, the value it must land as); the
# value differs from the field's default, and extra lines make it valid
CASES = {
    "seed": ("9", lambda c: c.seed, 9),
    "out_dir": ("elsewhere", lambda c: c.out_dir, "elsewhere"),
    "gammas": ("1 8", lambda c: c.gammas, (1, 8)),
    "workers": ("2", lambda c: c.workers, 2),
    "model": ("lif", lambda c: c.lsm.model, "lif"),
    "epochs": ("2", lambda c: c.learning.epochs, 2),
    "dataset.kind": ("event_file\ndataset.path = x.events", lambda c: c.dataset_kind, "event_file"),
    "dataset.path": ("x.events", lambda c: c.dataset_path, "x.events"),
    "dataset.classes": ("3", lambda c: c.synthetic.num_classes, 3),
    "dataset.channels": ("10", lambda c: c.synthetic.num_channels, 10),
    "dataset.steps": ("100", lambda c: c.synthetic.length_steps, 100),
    "dataset.jitter": ("2", lambda c: c.synthetic.jitter_steps, 2),
    "dataset.examples_per_class": ("4", lambda c: c.synthetic.examples_per_class, 4),
    "dataset.template_rate": ("0.1", lambda c: c.synthetic.template_rate, 0.1),
    "dataset.deletion_prob": ("0.125", lambda c: c.synthetic.deletion_prob, 0.125),
    "dataset.insertion_prob": ("0.01", lambda c: c.synthetic.insertion_prob, 0.01),
    "lsm.reservoir_size": ("27\nlsm.grid = 3 3 3", lambda c: c.lsm.reservoir_size, 27),
    "lsm.grid": ("5 3 9", lambda c: c.lsm.reservoir_grid, (5, 3, 9)),
    "lsm.readout": ("7", lambda c: c.num_readout, 7),
    "lsm.c_ee": ("0.35", lambda c: c.lsm.c_ee, 0.35),
    "lsm.c_ei": ("0.25", lambda c: c.lsm.c_ei, 0.25),
    "lsm.c_ie": ("0.45", lambda c: c.lsm.c_ie, 0.45),
    "lsm.c_ii": ("0.15", lambda c: c.lsm.c_ii, 0.15),
    "lsm.lambda": ("3.0", lambda c: c.lsm.lambda_dist, 3.0),
    "lsm.excitatory_fraction": ("0.7", lambda c: c.lsm.excitatory_fraction, 0.7),
    "lsm.input_fanout": ("6", lambda c: c.lsm.input_fanout, 6),
    "neuron.tau_m": ("inf", lambda c: c.lsm.lif.tau_m_nom, float("inf")),
    "neuron.u_th": ("2.0", lambda c: c.lsm.lif.u_th, 2.0),
    "neuron.r": ("0.5", lambda c: c.lsm.lif.R, 0.5),
    "neuron.n_max": ("3", lambda c: c.lsm.lif.n_max, 3),
    "neuron.synapse_order": ("first", lambda c: c.lsm.lif.synapse.order, "first"),
    "neuron.tau_s1": ("3", lambda c: c.lsm.lif.synapse.tau_s1_nom, 3.0),
    "neuron.tau_s2": ("6", lambda c: c.lsm.lif.synapse.tau_s2_nom, 6.0),
    "neuron.q": ("0.5", lambda c: c.lsm.lif.synapse.q, 0.5),
    "neuron.beta": ("2", lambda c: c.lsm.burst.beta, 2.0),
    "learning.eta": ("0.01", lambda c: c.learning.eta, 0.01),
    "learning.tau_trace": ("8", lambda c: c.learning.tau_trace_nom, 8.0),
    "learning.margin": ("2", lambda c: c.learning.teacher_margin, 2),
    "learning.w_min": ("-2", lambda c: c.learning.w_min, -2.0),
    "learning.w_max": ("2", lambda c: c.learning.w_max, 2.0),
    "learning.train_fraction": ("0.5", lambda c: c.train_fraction, 0.5),
    "energy.e_synaptic_op": ("2", lambda c: c.energy.e_synaptic_op, 2.0),
    "energy.e_neuron_update": ("3", lambda c: c.energy.e_neuron_update, 3.0),
    "energy.e_spike": ("0.25", lambda c: c.energy.e_spike, 0.25),
    "energy.p_static": ("7", lambda c: c.energy.p_static, 7.0),
}

FLOAT_KEYS = [key for key, path in KEYS.items() if field_type(path) in (float, float | None)]


def load(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("schema_version = 1\n" + text)
    return load_experiment_config(cfg)


def test_cases_cover_the_table():
    assert set(CASES) == set(KEYS)


@pytest.mark.parametrize("key", sorted(CASES))
def test_key_sets_its_field(tmp_path, key):
    text, get, expected = CASES[key]
    assert get(ExperimentConfig()) != expected
    assert get(load(tmp_path, f"{key} = {text}\n")) == expected


def test_schema_version_alone_gives_the_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("TCSNN_OUT", str(tmp_path / "runs"))
    assert load(tmp_path, "") == ExperimentConfig(out_dir=str(tmp_path / "runs"))


def test_auto_means_none(tmp_path):
    assert load(tmp_path, "energy.p_static = auto\n").energy.p_static is None
    assert load(tmp_path, "lsm.readout = auto\n").num_readout is None


def test_resources(tmp_path):
    text = "resources.baseline.lut = 10\nresources.baseline.ff = 5\nresources.g4.lut = 8\nresources.g4.ff = 4\n"
    assert load(tmp_path, text).resources == {1: (10, 5), 4: (8, 4)}


def test_lsm_config_fills_the_per_run_fields(tmp_path):
    cfg = load(tmp_path, "seed = 4\nmodel = iow-burst-lif\nneuron.synapse_order = zeroth\n"
                         "dataset.steps = 50\ndataset.examples_per_class = 1\n")
    dataset = cfg.make_dataset()
    lsm = cfg.make_lsm_config(dataset)
    assert (lsm.num_inputs, lsm.num_readout, lsm.seed) == (dataset.num_channels, dataset.num_classes, 4)
    assert lsm.burst.beta == 1.5
    assert load(tmp_path, "").make_lsm_config(dataset).burst is None


# (file lines after schema_version, the line to report, a fragment of the message)
INVALID = {
    "bad grid": ("lsm.grid = 3 3 4\n", 2, "does not tile"),
    "short grid": ("lsm.grid = 3 3\n", 2, "needs three positive sizes"),
    "negative grid": ("lsm.grid = -3 -3 15\n", 2, "needs three positive sizes"),
    "probability": ("seed = 3\nlsm.c_ee = 1.5\n", 3, "c_ee must be a probability"),
    "time constant": ("neuron.tau_m = 1\n", 2, "tau_m_nom must exceed 1"),
    "trace time constant": ("learning.tau_trace = 0.5\n", 2, "tau_trace_nom must exceed 1"),
    "epochs": ("epochs = -1\n", 2, "epochs must be >= 0"),
    "model/synapse pairing": ("model = burst-lif\n", 2, "zeroth-order synapse"),
    "unknown model": ("model = izhikevich\n", 2, "unknown model"),
    "unknown key": ("seed = 3\nlsm.reservoir = 27\n", 3, "unknown key 'lsm.reservoir'"),
    "nan": ("learning.eta = nan\n", 2, "expected a number"),
    "infinite rate": ("learning.eta = inf\n", 2, "eta must be >= 0 and finite"),
    "infinite threshold": ("neuron.u_th = inf\n", 2, "u_th must be positive and finite"),
    "infinite energy": ("energy.e_spike = inf\n", 2, "e_spike must be >= 0 and finite"),
    "empty gammas": ("seed = 3\ngammas =\n", 3, "gammas must list one or more distinct ratios"),
    "gamma past the bound": ("seed = 3\ngammas = 1 17\n", 3, "gamma 17 outside [1, 16]"),
    "no workers": ("workers = 0\n", 2, "workers must be >= 1"),
    "negative workers": ("workers = -4\n", 2, "workers must be >= 1"),
    "no readout": ("lsm.readout = 0\n", 2, "lsm.readout: num_readout must be >= 1, got 0"),
    "negative readout": ("seed = 3\nlsm.readout = -1\n", 3, "lsm.readout: num_readout must be >= 1, got -1"),
    "negative input fanout": ("lsm.input_fanout = -1\n", 2, "input_fanout must be in [0, 135], got -1"),
    "negative seed": ("gammas = 1\nseed = -1\n", 3, "seed must be >= 0"),
    "resources twice": ("resources.baseline.lut = 1\nresources.baseline.ff = 1\nresources.g1.lut = 2\n", 4,
                        "resources.baseline (line 2)"),
    "half resources": ("resources.g2.lut = 1\n", 2, "need both lut and ff"),
    "bad resources tag": ("resources.gx.lut = 1\n", 2, "unknown key 'resources.gx.lut'"),
    "not an integer": ("workers = 1.5\n", 2, "expected an integer"),
    "train fraction": ("learning.train_fraction = 0\n", 2, "train_fraction must be in (0, 1), got 0.0"),
    "rate past the format": ("learning.eta = 1e300\n", 2, "eta 1e+300 does not fit the 32-bit fixed-point format"),
    "w_min past the format": ("learning.w_min = -1e300\n", 2, "w_min -1e+300 does not fit"),
    "w_max past the format": ("learning.w_max = 1e300\n", 2, "w_max 1e+300 does not fit"),
    "one class": ("dataset.classes = 1\n", 2, "num_classes must be >= 2"),
    "no channels": ("dataset.channels = 0\n", 2, "num_channels must be >= 1"),
    "negative jitter": ("dataset.jitter = -1\n", 2, "jitter_steps must be in [0, length_steps = 500)"),
    "jitter past the length": ("seed = 3\ndataset.steps = 4\n", 3, "jitter_steps must be in [0, length_steps = 4)"),
    "no examples": ("dataset.examples_per_class = 0\n", 2, "examples_per_class must be >= 1"),
    "template rate": ("dataset.template_rate = 2\n", 2, "template_rate must be a probability"),
    "deletion probability": ("dataset.deletion_prob = -0.5\n", 2, "deletion_prob must be a probability"),
    "infinite synapse rise": ("neuron.tau_s1 = inf\n", 2, "both time constants finite"),
    "infinite synapse decay": ("neuron.tau_s2 = inf\n", 2, "both time constants finite"),
    "infinite first-order synapse": ("neuron.synapse_order = first\nneuron.tau_s1 = inf\n", 3,
                                     "needs a finite tau_s1_nom"),
    "infinite trace time constant": ("learning.tau_trace = inf\n", 2, "tau_trace_nom must exceed 1 and be finite"),
    "time constant past the shifter": ("neuron.tau_m = 1e12\n", 2, "needs a 40-bit shift at gamma 1, past 31 bits"),
    "trace past the shifter": ("learning.tau_trace = 1e20\n", 2, "needs a 67-bit shift at gamma 1"),
    # either key clears it; the first one in the file is named
    "rate times trace past int64": ("learning.tau_trace = 1e5\nlearning.eta = 32767\n", 2,
                                    "learning.tau_trace: eta 32767 times a trace of up to 60129542144 raw"),
    "time constant that cannot scale": ("gammas = 4\nneuron.tau_s2 = 1e20\n", 3, "too long to scale by gamma 4"),
    "zero threshold": ("neuron.u_th = 1e-9\n", 2, "u_th 1e-09 rounds to a zero threshold"),
    "threshold past the format": ("neuron.u_th = 1e10\n", 2, "u_th 1e+10 does not fit"),
    "q past the format": ("neuron.q = 1e12\n", 2, "q 1e+12 does not fit"),
    "gain past the format": ("neuron.r = 1e12\n", 2, "membrane gain R/tau_m 3.125e+10 at gamma 1 does not fit"),
    "gain past the format at one ratio": ("gammas = 1 16\nneuron.r = 1e5\n", 3, "at gamma 16 does not fit"),
    # dropping the size alone would leave a grid that does not tile: the rate is to blame
    "blame past a paired key": ("lsm.reservoir_size = 27\nlsm.grid = 3 3 3\nlearning.eta = 1e30\n", 4,
                                "learning.eta: eta 1e+30 does not fit"),
    "insertion probability": ("dataset.insertion_prob = 1.5\n", 2, "insertion_prob must be a probability"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_value_exits_1_naming_the_line(tmp_path, capsys, case):
    text, line, fragment = INVALID[case]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("schema_version = 1\n" + text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{cfg}:{line}:" in err
    assert fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_rejected_in_every_float_key(tmp_path, key):
    with pytest.raises(ValueError, match=f"exp.cfg:2: {key}: expected a number, got 'nan'"):
        load(tmp_path, f"{key} = nan\n")


def test_error_no_single_key_clears_names_the_file(tmp_path):
    # dropping either line alone still leaves a grid that does not tile
    with pytest.raises(ValueError) as caught:
        load(tmp_path, "lsm.reservoir_size = 28\nlsm.grid = 3 3 3\n")
    assert str(caught.value).endswith("exp.cfg: grid (3, 3, 3) does not tile 28 neurons")
