"""Experiment configuration files.

Flat ``key = value`` text with dotted keys, ``#`` comments and blank lines
ignored. Files must carry ``schema_version = 1``. Unknown keys are errors so
typos cannot silently change an experiment.

Each key in :data:`KEYS` sets one dataclass field, whose annotation gives
the value's type and whose default holds when the key is left out. Besides
the table, ``resources.<baseline|g<N>>.<lut|ff>`` give the FPGA resource
counts at gamma 1 or N. Every dataclass is built, and so validated, at load,
so a bad value fails with its ``path:line``. Example::

    schema_version = 1
    model = iow-lif
    gammas = 1 2 4 8 16
    lsm.grid = 3 3 15
    resources.baseline.lut = 57326
    resources.baseline.ff = 18200
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import asdict, dataclass, field, replace
from typing import get_args, get_origin, get_type_hints

from .learning import LearningParams, trace_plan
from .metrics import EnergyModel
from .network import LsmConfig
from .neuron import compile_neuron
from .spike import SpikeDataset, load_event_file, read_text, synthetic_task

__all__ = ["ConfigError", "ExperimentConfig", "KEYS", "load_experiment_config", "parse_kv_text"]

SCHEMA_VERSION = 1
DEFAULT_OUT_ENV = "TCSNN_OUT"
MAX_GAMMA = 16  # the largest ratio a run may use
_type_hints = functools.cache(get_type_hints)  # evaluating annotations is slow


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


def parse_kv_text(path) -> dict:
    """Read a key = value file of UTF-8 text into an ordered dict of key -> (value, line)."""
    out = {}
    try:
        text = read_text(path, ConfigError)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Arguments of :func:`~tcsnn.spike.synthetic_task` but the seed."""

    num_classes: int = 5
    num_channels: int = 78
    length_steps: int = 500
    jitter_steps: int = 4
    examples_per_class: int = 24
    template_rate: float = 0.05
    deletion_prob: float = 0.05
    insertion_prob: float = 0.005

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")
        if self.length_steps < 1:
            raise ValueError(f"length_steps must be >= 1, got {self.length_steps}")
        if not 0 <= self.jitter_steps < self.length_steps:
            raise ValueError(
                f"jitter_steps must be in [0, length_steps = {self.length_steps}), got {self.jitter_steps}"
            )
        if self.examples_per_class < 1:
            raise ValueError(f"examples_per_class must be >= 1, got {self.examples_per_class}")
        for name in ("template_rate", "deletion_prob", "insertion_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved batch experiment description. ``lsm`` is the network
    of every run, before :meth:`make_lsm_config` fills in the fields the
    dataset decides; ``num_readout`` None means one readout neuron per class."""

    seed: int = 0
    out_dir: str = ""
    gammas: tuple[int, ...] = (1, 2, 4, 8, 16)
    workers: int = 1
    dataset_kind: str = "synthetic"
    dataset_path: str = ""
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    num_readout: int | None = None
    train_fraction: float = 0.8
    lsm: LsmConfig = field(default_factory=LsmConfig)
    learning: LearningParams = field(default_factory=LearningParams)
    energy: EnergyModel = field(default_factory=EnergyModel)
    resources: dict = field(default_factory=dict)  # gamma -> (lut, ff)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.gammas or len(set(self.gammas)) != len(self.gammas):
            raise ConfigError(f"gammas must list one or more distinct ratios, got {self.gammas}")
        for g in self.gammas:
            if not 1 <= g <= MAX_GAMMA:
                raise ConfigError(f"gamma {g} outside [1, {MAX_GAMMA}]")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.num_readout is not None and self.num_readout < 1:
            raise ConfigError(f"num_readout must be >= 1, got {self.num_readout}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.dataset_kind not in ("synthetic", "event_file"):
            raise ConfigError(f"dataset.kind must be synthetic or event_file, got {self.dataset_kind!r}")
        if self.dataset_kind == "event_file" and not self.dataset_path:
            raise ConfigError("dataset.kind = event_file requires dataset.path")
        if any(count < 0 for pair in self.resources.values() for count in pair):
            raise ConfigError("resource counts must be >= 0")
        if 1 in self.resources and sum(self.resources[1]) == 0:  # no counts, so no area for ATEL to divide by
            raise ConfigError("baseline resources must give a positive area (ff + 2 lut)")
        try:  # the neuron and the learner's trace at every ratio a run uses
            for gamma in self.gammas:
                trace_plan(self.learning, gamma, compile_neuron(self.lsm.lif, gamma).n_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def make_dataset(self) -> SpikeDataset:
        if self.dataset_kind == "event_file":
            return load_event_file(self.dataset_path)
        return synthetic_task(seed=self.seed, **asdict(self.synthetic))

    def make_lsm_config(self, dataset: SpikeDataset) -> LsmConfig:
        return replace(
            self.lsm,
            num_inputs=dataset.num_channels,
            num_readout=dataset.num_classes if self.num_readout is None else self.num_readout,
            seed=self.seed,
        )


def _same(prefix: str, target: str, names: str) -> dict:
    return {prefix + name: target + name for name in names.split()}


# config key -> dotted path of the ExperimentConfig field it sets
KEYS = {
    **_same("", "", "seed out_dir gammas workers"),
    "model": "lsm.lif.model",
    "epochs": "learning.epochs",
    "dataset.kind": "dataset_kind",
    "dataset.path": "dataset_path",
    "dataset.classes": "synthetic.num_classes",
    "dataset.channels": "synthetic.num_channels",
    "dataset.steps": "synthetic.length_steps",
    "dataset.jitter": "synthetic.jitter_steps",
    **_same("dataset.", "synthetic.", "examples_per_class template_rate deletion_prob insertion_prob"),
    **_same("lsm.", "lsm.", "reservoir_size c_ee c_ei c_ie c_ii excitatory_fraction input_fanout"),
    "lsm.grid": "lsm.reservoir_grid",
    "lsm.readout": "num_readout",
    "lsm.lambda": "lsm.lambda_dist",
    "neuron.tau_m": "lsm.lif.tau_m_nom",
    "neuron.r": "lsm.lif.R",
    **_same("neuron.", "lsm.lif.", "u_th n_max"),
    "neuron.synapse_order": "lsm.lif.synapse.order",
    "neuron.tau_s1": "lsm.lif.synapse.tau_s1_nom",
    "neuron.tau_s2": "lsm.lif.synapse.tau_s2_nom",
    "neuron.q": "lsm.lif.synapse.q",
    "neuron.beta": "lsm.lif.beta",
    **_same("learning.", "learning.", "eta w_min w_max"),
    "learning.tau_trace": "learning.tau_trace_nom",
    "learning.margin": "learning.teacher_margin",
    "learning.train_fraction": "train_fraction",
    **_same("energy.", "energy.", "e_synaptic_op e_neuron_update e_spike p_static"),
}


@functools.cache
def _defaults() -> ExperimentConfig:
    """The default experiment, validated (its neuron compiled at every ratio) once."""
    return ExperimentConfig()


def field_type(field_path: str):
    """The annotated type of the ExperimentConfig field at ``field_path``."""
    *parents, name = field_path.split(".")
    owner = functools.reduce(getattr, parents, _defaults())
    return _type_hints(type(owner))[name]


def _parse(text: str, kind, where: str):
    """``text`` read as a value of the annotated type ``kind``."""
    if type(None) in get_args(kind):
        if text == "auto":
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    if kind is str:
        return text
    try:
        value = tuple(int(tok) for tok in text.split()) if get_origin(kind) is tuple else kind(text)
        if kind is float and math.isnan(value):
            raise ValueError(text)
    except ValueError:
        expected = {int: "an integer", float: "a number"}.get(kind, "integers")
        raise ConfigError(f"{where}: expected {expected}, got {text!r}") from None
    return value


def _build(base, fields: dict):
    """``base`` with dotted-path fields replaced, each dataclass rebuilt (so validated) once."""
    groups = {}
    for path, value in fields.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    return replace(base, **{
        head: sub[""] if "" in sub else _build(getattr(base, head), sub) for head, sub in groups.items()
    })


def _locate(error: ValueError, found: dict, path) -> str:
    """``error`` led by the line of the first key whose removal clears it.

    A key whose removal only trades the error for another (a reservoir size
    without its grid) is not to blame. When no single key clears it, the
    error names the file alone.
    """
    for key, (lineno, field_path, _) in found.items():
        try:
            _build(_defaults(), {p: v for _, p, v in found.values() if p != field_path})
        except ValueError:
            continue
        return f"{path}:{lineno}: {key}: {error}"
    return f"{path}: {error}"


def load_experiment_config(path) -> ExperimentConfig:
    """Parse, validate and resolve an experiment config file."""
    kv = parse_kv_text(path)
    version, version_line = kv.pop("schema_version", (None, 0))
    if version is None:
        raise ConfigError(f"{path}: missing schema_version")
    if _parse(version, int, f"{path}:{version_line}: schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path}:{version_line}: unsupported schema_version {version}")

    found = {}  # key -> (line, field path, value)
    resources = {}  # gamma -> {"tag", "line", "lut", "ff"}
    for key, (text, lineno) in kv.items():
        where = f"{path}:{lineno}: {key}"
        match = re.fullmatch(r"resources\.(baseline|g(\d+))\.(lut|ff)", key)
        if match:
            tag, number, count = match.groups()
            entry = resources.setdefault(int(number or 1), {"tag": tag, "line": lineno})
            if entry["tag"] != tag:
                raise ConfigError(
                    f"{where}: resources.{entry['tag']} (line {entry['line']}) already gives these counts"
                )
            entry[count] = _parse(text, int, where)
        elif key in KEYS:
            found[key] = (lineno, KEYS[key], _parse(text, field_type(KEYS[key]), where))
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for gamma, entry in resources.items():
        if not {"lut", "ff"} <= entry.keys():
            raise ConfigError(f"{path}:{entry['line']}: resources for gamma {gamma} need both lut and ff")
    if resources:
        counts = {gamma: (entry["lut"], entry["ff"]) for gamma, entry in resources.items()}
        found["resources"] = (min(entry["line"] for entry in resources.values()), "resources", counts)

    try:
        config = _build(_defaults(), {field_path: value for _, field_path, value in found.values()})
    except ValueError as exc:
        raise ConfigError(_locate(exc, found, path)) from None
    if not config.out_dir:
        config = replace(config, out_dir=os.environ.get(DEFAULT_OUT_ENV, "runs"))
    return config
