"""Experiment configuration files.

Flat ``key = value`` text with dotted keys, ``#`` comments and blank lines
ignored. Files must carry ``schema_version = 1``. Unknown keys are errors so
typos cannot silently change an experiment.

Example::

    schema_version = 1
    seed = 7
    model = iow-lif
    gammas = 1 2 4 8 16
    epochs = 30
    dataset.kind = synthetic
    dataset.classes = 5
    dataset.channels = 78
    dataset.steps = 500
    lsm.reservoir_size = 135
    lsm.grid = 3 3 15
    resources.baseline.lut = 57326
    resources.baseline.ff = 18200
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .compress import CompressionConfig
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from .learning import LearningParams
from .metrics import EnergyModel
from .network import LsmConfig
from .neuron import MODELS, BurstParams, LIFParams, SynapseParams
from .spike import SpikeDataset, load_event_file, synthetic_task

__all__ = ["ConfigError", "ExperimentConfig", "load_experiment_config", "parse_kv_text"]

SCHEMA_VERSION = 1
DEFAULT_OUT_ENV = "TCSNN_OUT"


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


def parse_kv_text(path) -> dict:
    """Read a key = value file into an ordered string dict."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 5
    channels: int = 78
    steps: int = 500
    jitter: int = 4
    examples_per_class: int = 24
    template_rate: float = 0.05
    deletion_prob: float = 0.05
    insertion_prob: float = 0.005


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved batch experiment description."""

    seed: int = 0
    out_dir: str = ""
    model: str = "iow-lif"
    gammas: tuple = (1, 2, 4, 8, 16)
    epochs: int = 30
    workers: int = 1
    max_gamma: int = 16
    dataset_kind: str = "synthetic"
    dataset_path: str = ""
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    reservoir_size: int = 135
    grid: tuple = (3, 3, 15)
    num_readout: int | None = None  # default: number of classes
    c_ee: float = 0.3
    c_ei: float = 0.2
    c_ie: float = 0.4
    c_ii: float = 0.1
    lambda_dist: float = 2.0
    excitatory_fraction: float = 0.8
    input_fanout: int = 4
    lif: LIFParams = field(default_factory=LIFParams)
    beta: float = 1.5
    learning: LearningParams = field(default_factory=LearningParams)
    train_fraction: float = 0.8
    energy: EnergyModel = field(default_factory=EnergyModel)
    resources: dict = field(default_factory=dict)  # gamma -> (lut, ff)
    fmt: FixedPointFormat = DEFAULT_FORMAT

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r} (choose from {', '.join(MODELS)})")
        for g in self.gammas:
            if not 1 <= g <= self.max_gamma:
                raise ConfigError(f"gamma {g} outside [1, {self.max_gamma}]")
        if len(set(self.gammas)) != len(self.gammas):
            raise ConfigError("gammas must be distinct")
        if self.dataset_kind not in ("synthetic", "event_file"):
            raise ConfigError(f"dataset.kind must be synthetic or event_file, got {self.dataset_kind!r}")
        if self.dataset_kind == "event_file" and not self.dataset_path:
            raise ConfigError("dataset.kind = event_file requires dataset.path")

    def make_dataset(self) -> SpikeDataset:
        if self.dataset_kind == "event_file":
            return load_event_file(self.dataset_path)
        s = self.synthetic
        return synthetic_task(
            num_classes=s.classes,
            num_channels=s.channels,
            length_steps=s.steps,
            jitter_steps=s.jitter,
            examples_per_class=s.examples_per_class,
            seed=self.seed,
            template_rate=s.template_rate,
            deletion_prob=s.deletion_prob,
            insertion_prob=s.insertion_prob,
        )

    def make_lsm_config(self, dataset: SpikeDataset, gamma: int, programmable: bool = False) -> LsmConfig:
        burst = BurstParams(beta=self.beta) if MODELS[self.model].bursting else None
        return LsmConfig(
            num_inputs=dataset.num_channels,
            reservoir_size=self.reservoir_size,
            num_readout=self.num_readout if self.num_readout is not None else dataset.num_classes,
            reservoir_grid=self.grid,
            c_ee=self.c_ee,
            c_ei=self.c_ei,
            c_ie=self.c_ie,
            c_ii=self.c_ii,
            lambda_dist=self.lambda_dist,
            excitatory_fraction=self.excitatory_fraction,
            input_fanout=self.input_fanout,
            model=self.model,
            seed=self.seed,
            lif=self.lif,
            burst=burst,
            compression=CompressionConfig(gamma=gamma, programmable=programmable, max_gamma=self.max_gamma),
            fmt=self.fmt,
        )


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {value!r}") from None


def _to_float(key, value):
    try:
        if value == "inf":
            return math.inf
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {value!r}") from None


def load_experiment_config(path) -> ExperimentConfig:
    """Parse, validate and resolve an experiment config file."""
    kv = parse_kv_text(path)
    version = kv.pop("schema_version", None)
    if version is None:
        raise ConfigError(f"{path}: missing schema_version")
    if _to_int("schema_version", version) != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema_version {version}")

    top: dict = {}
    syn: dict = {}
    neuron: dict = {}
    learn: dict = {}
    energy: dict = {}
    resources: dict = {}

    for key, value in kv.items():
        if key == "gammas":
            top["gammas"] = tuple(_to_int(key, tok) for tok in value.split())
        elif key in ("seed", "epochs", "workers", "max_gamma"):
            top[key] = _to_int(key, value)
        elif key in ("out_dir", "model"):
            top[key] = value
        elif key == "dataset.kind":
            top["dataset_kind"] = value
        elif key == "dataset.path":
            top["dataset_path"] = value
        elif key in ("dataset.classes", "dataset.channels", "dataset.steps", "dataset.jitter", "dataset.examples_per_class"):
            syn[key.split(".", 1)[1]] = _to_int(key, value)
        elif key in ("dataset.template_rate", "dataset.deletion_prob", "dataset.insertion_prob"):
            syn[key.split(".", 1)[1]] = _to_float(key, value)
        elif key == "lsm.reservoir_size":
            top["reservoir_size"] = _to_int(key, value)
        elif key == "lsm.grid":
            top["grid"] = tuple(_to_int(key, tok) for tok in value.split())
        elif key == "lsm.readout":
            top["num_readout"] = _to_int(key, value)
        elif key in ("lsm.c_ee", "lsm.c_ei", "lsm.c_ie", "lsm.c_ii"):
            top[key.split(".", 1)[1]] = _to_float(key, value)
        elif key == "lsm.lambda":
            top["lambda_dist"] = _to_float(key, value)
        elif key == "lsm.excitatory_fraction":
            top["excitatory_fraction"] = _to_float(key, value)
        elif key == "lsm.input_fanout":
            top["input_fanout"] = _to_int(key, value)
        elif key.startswith("neuron."):
            neuron[key.split(".", 1)[1]] = value
        elif key.startswith("learning."):
            learn[key.split(".", 1)[1]] = value
        elif key.startswith("energy."):
            energy[key.split(".", 1)[1]] = value
        elif key.startswith("resources."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in ("lut", "ff"):
                raise ConfigError(f"unknown resources key {key!r}")
            tag = parts[1]
            if tag == "baseline":
                g = 1
            elif tag.startswith("g"):
                g = _to_int(key, tag[1:])
            else:
                raise ConfigError(f"resources tag must be 'baseline' or 'g<N>', got {tag!r}")
            resources.setdefault(g, {})[parts[2]] = _to_int(key, value)
        else:
            raise ConfigError(f"{path}: unknown key {key!r}")

    if syn:
        top["synthetic"] = SyntheticSpec(**syn)

    if neuron:
        allowed = {"tau_m", "u_th", "r", "n_max", "synapse_order", "tau_s1", "tau_s2", "q", "beta"}
        unknown = set(neuron) - allowed
        if unknown:
            raise ConfigError(f"unknown neuron keys: {sorted(unknown)}")
        synapse = SynapseParams(
            order=neuron.get("synapse_order", "second"),
            tau_s1_nom=_to_float("neuron.tau_s1", neuron.get("tau_s1", "4")),
            tau_s2_nom=_to_float("neuron.tau_s2", neuron.get("tau_s2", "8")),
            q=_to_float("neuron.q", neuron.get("q", "1.0")),
        )
        top["lif"] = LIFParams(
            tau_m_nom=_to_float("neuron.tau_m", neuron.get("tau_m", "32")),
            u_th=_to_float("neuron.u_th", neuron.get("u_th", "1.0")),
            R=_to_float("neuron.r", neuron.get("r", "1.0")),
            n_max=_to_int("neuron.n_max", neuron.get("n_max", "7")),
            synapse=synapse,
        )
        if "beta" in neuron:
            top["beta"] = _to_float("neuron.beta", neuron["beta"])

    if learn:
        allowed = {"eta", "tau_trace", "margin", "w_min", "w_max", "train_fraction"}
        unknown = set(learn) - allowed
        if unknown:
            raise ConfigError(f"unknown learning keys: {sorted(unknown)}")
        if "train_fraction" in learn:
            top["train_fraction"] = _to_float("learning.train_fraction", learn.pop("train_fraction"))
        defaults = LearningParams()
        top["learning"] = LearningParams(
            eta=_to_float("learning.eta", learn.get("eta", str(defaults.eta))),
            tau_trace_nom=_to_float("learning.tau_trace", learn.get("tau_trace", str(defaults.tau_trace_nom))),
            teacher_margin=_to_int("learning.margin", learn.get("margin", str(defaults.teacher_margin))),
            epochs=top.get("epochs", 30),
            w_min=_to_float("learning.w_min", learn.get("w_min", str(defaults.w_min))),
            w_max=_to_float("learning.w_max", learn.get("w_max", str(defaults.w_max))),
        )

    if energy:
        allowed = {"e_synaptic_op", "e_neuron_update", "e_spike", "p_static"}
        unknown = set(energy) - allowed
        if unknown:
            raise ConfigError(f"unknown energy keys: {sorted(unknown)}")
        p_static = energy.get("p_static", "auto")
        top["energy"] = EnergyModel(
            e_synaptic_op=_to_float("energy.e_synaptic_op", energy.get("e_synaptic_op", "1.0")),
            e_neuron_update=_to_float("energy.e_neuron_update", energy.get("e_neuron_update", "1.0")),
            e_spike=_to_float("energy.e_spike", energy.get("e_spike", "0.5")),
            p_static=None if p_static == "auto" else _to_float("energy.p_static", p_static),
        )

    if resources:
        for g, entry in resources.items():
            if set(entry) != {"lut", "ff"}:
                raise ConfigError(f"resources for gamma {g} need both lut and ff")
        top["resources"] = {g: (entry["lut"], entry["ff"]) for g, entry in resources.items()}

    if not top.get("out_dir"):
        top["out_dir"] = os.environ.get(DEFAULT_OUT_ENV, "runs")

    try:
        return ExperimentConfig(**top)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
