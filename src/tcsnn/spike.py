"""Spike-train data types, synthetic task generation and line-oriented
event-file I/O.

All timing is in dimensionless timesteps; rates are expected spikes per
timestep. A train is binary: at most one spike per channel and step. The
engine compresses dense ``(channels, steps)`` count arrays
(:func:`trains_to_dense`), so no weighted train type exists. Types are
immutable after construction (event arrays are marked read-only) and
generation is pure given a seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinarySpikeTrain",
    "SpikeDataset",
    "synthetic_task",
    "load_event_file",
    "save_event_file",
    "trains_to_dense",
    "dense_to_trains",
]


@dataclass(frozen=True, eq=False)
class BinarySpikeTrain:
    """Per-channel binary spike sequence: at most one spike per timestep."""

    channel_id: int
    events: np.ndarray  # strictly increasing timestep indices
    length_steps: int

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=np.int64)
        ev.setflags(write=False)
        object.__setattr__(self, "events", ev)
        if ev.ndim != 1:
            raise ValueError("events must be a 1-d sequence of timesteps")
        if ev.size:
            if (np.diff(ev) <= 0).any():
                raise ValueError(f"channel {self.channel_id}: timesteps must be strictly increasing")
            if ev[0] < 0 or ev[-1] >= self.length_steps:
                raise ValueError(f"channel {self.channel_id}: event outside [0, {self.length_steps})")

    def __setstate__(self, state):
        # numpy does not keep arrays read-only through pickling
        state["events"].setflags(write=False)
        self.__dict__.update(state)

    @property
    def spike_count(self) -> int:
        return int(self.events.size)

    def __eq__(self, other):
        if not isinstance(other, BinarySpikeTrain):
            return NotImplemented
        return (
            self.channel_id == other.channel_id
            and self.length_steps == other.length_steps
            and np.array_equal(self.events, other.events)
        )


@dataclass(frozen=True, eq=False)
class SpikeDataset:
    """Labeled multi-channel spike-train examples sharing one geometry."""

    examples: tuple  # of (tuple[BinarySpikeTrain, ...], label)
    num_channels: int
    num_classes: int
    length_steps: int

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple((tuple(trains), int(label)) for trains, label in self.examples))
        for idx, (trains, label) in enumerate(self.examples):
            if len(trains) != self.num_channels:
                raise ValueError(f"example {idx}: expected {self.num_channels} channels, got {len(trains)}")
            if not 0 <= label < self.num_classes:
                raise ValueError(f"example {idx}: label {label} out of range [0, {self.num_classes})")
            for tr in trains:
                if tr.length_steps != self.length_steps:
                    raise ValueError(f"example {idx}: train length {tr.length_steps} != {self.length_steps}")

    def __len__(self) -> int:
        return len(self.examples)

    def __eq__(self, other):
        if not isinstance(other, SpikeDataset):
            return NotImplemented
        return (
            self.num_channels == other.num_channels
            and self.num_classes == other.num_classes
            and self.length_steps == other.length_steps
            and self.examples == other.examples
        )


def trains_to_dense(trains) -> np.ndarray:
    """Stack binary trains into a dense (channels, steps) 0/1 count array."""
    trains = list(trains)
    dense = np.zeros((len(trains), trains[0].length_steps if trains else 0), dtype=np.int64)
    for row, tr in enumerate(trains):
        dense[row, tr.events] = 1
    return dense


def dense_to_trains(dense: np.ndarray) -> list[BinarySpikeTrain]:
    """Inverse of :func:`trains_to_dense` for binary (0/1) matrices."""
    return [
        BinarySpikeTrain(channel_id=ch, events=np.flatnonzero(dense[ch]), length_steps=dense.shape[1])
        for ch in range(dense.shape[0])
    ]


def synthetic_task(
    num_classes: int,
    num_channels: int,
    length_steps: int,
    jitter_steps: int,
    examples_per_class: int,
    seed: int,
    template_rate: float = 0.05,
    deletion_prob: float = 0.05,
    insertion_prob: float = 0.005,
) -> SpikeDataset:
    """Generate a deterministic desk-scale classification task.

    One frozen random template pattern per class; examples are noisy copies:
    each template spike survives with probability 1-deletion_prob and is
    jittered uniformly in [-jitter_steps, +jitter_steps] (clamped to the
    train), and each remaining empty timestep gains a spurious spike with
    probability insertion_prob. :class:`~tcsnn.config.SyntheticSpec`
    validates these arguments.
    """

    rng = np.random.default_rng(seed)
    templates = rng.random((num_classes, num_channels, length_steps)) < template_rate

    examples = []
    for label in range(num_classes):
        for _ in range(examples_per_class):
            dense = np.zeros((num_channels, length_steps), dtype=bool)
            for ch in range(num_channels):
                times = np.flatnonzero(templates[label, ch])
                if times.size:
                    keep = rng.random(times.size) >= deletion_prob
                    times = times[keep]
                if times.size and jitter_steps > 0:
                    offsets = rng.integers(-jitter_steps, jitter_steps + 1, size=times.size)
                    times = np.clip(times + offsets, 0, length_steps - 1)
                dense[ch, times] = True
                if insertion_prob > 0.0:
                    empty = np.flatnonzero(~dense[ch])
                    if empty.size:
                        extra = empty[rng.random(empty.size) < insertion_prob]
                        dense[ch, extra] = True
            trains = dense_to_trains(dense.astype(np.int64))
            examples.append((tuple(trains), label))
    return SpikeDataset(
        examples=tuple(examples),
        num_channels=num_channels,
        num_classes=num_classes,
        length_steps=length_steps,
    )


class EventFileError(ValueError):
    """Raised on malformed event files, with the offending line number."""


def _fail(path, lineno: int, msg: str):
    raise EventFileError(f"{path}:{lineno}: {msg}")


def load_event_file(path) -> SpikeDataset:
    """Load a dataset from the line-oriented event-file format.

    Format: header ``channels=<n> classes=<k> steps=<T>``, then blocks
    opened by ``example label=<c>`` containing ``<channel> <timestep>``
    lines. ``#`` starts a comment; blank lines are ignored. The file is read
    line by line and each example's events are parsed in bulk; a malformed
    file reports its first offending line.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"event file not found: {path}") from None

    header = None
    examples = []
    block = None  # raw lines of the open example, which opened at line ``first - 1``
    first = label = 0
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if block is not None and not raw.lstrip().startswith("example"):
                block.append(raw)
                continue
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                header = _parse_header(path, lineno, line)
                continue
            if not line.startswith("example"):
                _fail(path, lineno, "event line before any 'example' block")
            if block is not None:
                examples.append((_parse_example(path, first, block, header), label))
            parts = line.split()
            if len(parts) != 2 or not parts[1].startswith("label="):
                _fail(path, lineno, "expected 'example label=<c>'")
            try:
                label = int(parts[1][len("label="):])
            except ValueError:
                _fail(path, lineno, "label must be an integer")
            if not 0 <= label < header["classes"]:
                _fail(path, lineno, f"label {label} out of range [0, {header['classes']})")
            block, first = [], lineno + 1

    if header is None:
        raise EventFileError(f"{path}: missing header line")
    if block is not None:
        examples.append((_parse_example(path, first, block, header), label))
    return SpikeDataset(
        examples=tuple(examples),
        num_channels=header["channels"],
        num_classes=header["classes"],
        length_steps=header["steps"],
    )


def _parse_header(path, lineno: int, line: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
    if set(fields) != {"channels", "classes", "steps"}:
        _fail(path, lineno, "header must be 'channels=<n> classes=<k> steps=<T>'")
    try:
        header = {k: int(v) for k, v in fields.items()}
    except ValueError:
        _fail(path, lineno, "header values must be integers")
    if min(header.values()) < 1:
        _fail(path, lineno, "header values must be positive")
    return header


def _parse_example(path, first: int, lines: list, header: dict) -> tuple:
    """One example's trains from its raw event lines, the first at line ``first``.

    The lines are parsed and checked in bulk; when that fails, they are read
    again one by one, which finds the first offending line.
    """
    channels, steps = header["channels"], header["steps"]
    events = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block without events
        try:
            events = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
        except ValueError:
            pass
    if events is None or events.shape[1] != 2:  # malformed, or no events at all
        events = _events_line_by_line(path, first, lines, header)
    ch, t = events[:, 0], events[:, 1]
    order = np.argsort(ch, kind="stable")  # each channel's events, in file order
    ch, t = ch[order], t[order]
    if ch.size and (
        ch[0] < 0 or ch[-1] >= channels or t.min() < 0 or t.max() >= steps
        or ((ch[1:] == ch[:-1]) & (t[1:] <= t[:-1])).any()
    ):
        _events_line_by_line(path, first, lines, header)  # raises at the first bad line
    bounds = np.cumsum(np.bincount(ch, minlength=channels))[:-1]
    return tuple(
        BinarySpikeTrain(channel_id=c, events=times, length_steps=steps)
        for c, times in enumerate(np.split(t, bounds))
    )


def _events_line_by_line(path, first: int, lines: list, header: dict) -> np.ndarray:
    """Check event lines one by one and return their (channel, timestep) rows."""
    last_time = {}  # channel -> last timestep seen
    rows = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            _fail(path, lineno, "expected '<channel> <timestep>'")
        try:
            ch, t = int(parts[0]), int(parts[1])
        except ValueError:
            _fail(path, lineno, "channel and timestep must be integers")
        if not 0 <= ch < header["channels"]:
            _fail(path, lineno, f"channel {ch} out of range [0, {header['channels']})")
        if not 0 <= t < header["steps"]:
            _fail(path, lineno, f"timestep {t} out of range [0, {header['steps']})")
        if t <= last_time.get(ch, -1):
            _fail(path, lineno, f"non-monotonic timestamp {t} on channel {ch}")
        last_time[ch] = t
        rows.append((ch, t))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def save_event_file(dataset: SpikeDataset, path):
    """Write a dataset in the same format :func:`load_event_file` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"channels={dataset.num_channels} classes={dataset.num_classes} steps={dataset.length_steps}\n")
        for trains, label in dataset.examples:
            fh.write(f"example label={label}\n")
            for tr in trains:
                for t in tr.events:
                    fh.write(f"{tr.channel_id} {int(t)}\n")
