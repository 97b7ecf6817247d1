"""Spike datasets, synthetic task generation and line-oriented event-file I/O.

All timing is in dimensionless timesteps. Spikes are binary: at most one per
channel and step. A :class:`SpikeDataset` holds every example's spikes in one
read-only array, bit-packed along time, and a label vector. The engine takes
an example row, one example's boolean ``(channels, steps)`` array, from
:meth:`SpikeDataset.row`. Generation is pure given a seed.

The event-file reader splits the text at its ``example`` lines, parses each
block's events with one numpy call and checks them on arrays. A file this
bulk parse does not take as plainly valid is read again line by line, by the
reference reader, which reports the first offending line as ``path:line``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpikeDataset",
    "synthetic_task",
    "load_event_file",
    "save_event_file",
]


@dataclass(frozen=True, eq=False)
class SpikeDataset:
    """Labeled binary spike examples sharing one geometry.

    ``bits[i]`` is example i's ``(channels, steps)`` spike array packed along
    time by ``np.packbits`` (pad bits zero), ``labels[i]`` its label. The
    dataset keeps read-only copies of both.
    """

    bits: np.ndarray  # (examples, channels, ceil(steps / 8)) uint8
    labels: np.ndarray  # (examples,) int64
    num_classes: int
    length_steps: int

    def __post_init__(self):
        bits = np.array(self.bits, dtype=np.uint8)
        labels = np.array(self.labels, dtype=np.int64)
        if self.length_steps < 1 or bits.ndim != 3 or bits.shape[2] != -(-self.length_steps // 8):
            raise ValueError(f"bits of shape {bits.shape} do not pack {self.length_steps} steps")
        if labels.shape != bits.shape[:1]:
            raise ValueError(f"{labels.size} labels for {bits.shape[0]} examples")
        bad = np.flatnonzero((labels < 0) | (labels >= self.num_classes))
        if bad.size:
            raise ValueError(f"example {bad[0]}: label {labels[bad[0]]} out of range [0, {self.num_classes})")
        if (bits[..., -1] & (0xFF >> (self.length_steps % 8 or 8))).any():
            raise ValueError(f"spikes past step {self.length_steps}")
        for name, arr in (("bits", bits), ("labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setstate__(self, state):
        # numpy does not keep arrays read-only through pickling
        for arr in (state["bits"], state["labels"]):
            arr.setflags(write=False)
        self.__dict__.update(state)

    @property
    def num_channels(self) -> int:
        return self.bits.shape[1]

    def __len__(self) -> int:
        return self.bits.shape[0]

    def row(self, index: int) -> np.ndarray:
        """Example ``index``'s spikes as a boolean ``(channels, steps)`` array."""
        return np.unpackbits(self.bits[index], axis=-1, count=self.length_steps).view(bool)

    def __eq__(self, other):
        if not isinstance(other, SpikeDataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and self.length_steps == other.length_steps
            and np.array_equal(self.bits, other.bits)
            and np.array_equal(self.labels, other.labels)
        )


def _packed(channels: np.ndarray, steps: np.ndarray, shape: tuple) -> np.ndarray:
    """One example's packed bits from its events' channels and timesteps."""
    row = np.zeros(shape, dtype=bool)
    row[channels, steps] = True
    return np.packbits(row, axis=-1)


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
    probability insertion_prob. Examples come class by class, and the
    random stream is drawn channel by channel within each example.
    :class:`~tcsnn.config.SyntheticSpec` validates these arguments.
    """

    rng = np.random.default_rng(seed)
    templates = rng.random((num_classes, num_channels, length_steps)) < template_rate
    template_times = [[np.flatnonzero(row) for row in pattern] for pattern in templates]

    bits = np.empty((num_classes * examples_per_class, num_channels, -(-length_steps // 8)), dtype=np.uint8)
    dense = np.empty((num_channels, length_steps), dtype=bool)
    for index in range(len(bits)):
        label = index // examples_per_class
        dense[:] = False
        for ch in range(num_channels):
            times = template_times[label][ch]
            if times.size:
                keep = rng.random(times.size) >= deletion_prob
                times = times[keep]
            if times.size and jitter_steps > 0:
                offsets = rng.integers(-jitter_steps, jitter_steps + 1, size=times.size)
                times = np.minimum(np.maximum(times + offsets, 0), length_steps - 1)  # np.clip, without its overhead
            dense[ch, times] = True
            if insertion_prob > 0.0:
                empty = np.flatnonzero(~dense[ch])
                if empty.size:
                    extra = empty[rng.random(empty.size) < insertion_prob]
                    dense[ch, extra] = True
        bits[index] = np.packbits(dense, axis=-1)
    labels = np.repeat(np.arange(num_classes), examples_per_class)
    return SpikeDataset(bits=bits, labels=labels, num_classes=num_classes, length_steps=length_steps)


class EventFileError(ValueError):
    """Raised on malformed event files, with the offending line number."""


def _fail(path, lineno: int, msg: str):
    raise EventFileError(f"{path}:{lineno}: {msg}")


def load_event_file(path) -> SpikeDataset:
    """Load a dataset from the line-oriented event-file format.

    Format: header ``channels=<n> classes=<k> steps=<T>``, then blocks
    opened by ``example label=<c>`` containing ``<channel> <timestep>``
    lines, each channel's timesteps strictly increasing. ``#`` starts a
    comment; blank lines are ignored. A malformed file reports its first
    offending line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"event file not found: {path}") from None
    except UnicodeDecodeError:  # the line reader reports it as it always has
        text = None
    dataset = None if text is None else _parse_bulk(text)
    return dataset if dataset is not None else _read_lines(path)


_COMMENT = re.compile(r"#[^\n]*")
_HEADER_FIELD = re.compile(r"(channels|classes|steps)=([1-9]\d*)")
_LABEL = re.compile(r"[ \t]+label=(\d+)[ \t]*")
_EVENT_CHARS = b"0123456789 \t\n"


def _parse_bulk(text: str) -> SpikeDataset | None:
    """The dataset ``text`` holds, or None unless every line of it is plainly valid.

    Plainly valid takes the header's three keys once each, in any order,
    with unsigned decimals without leading zeros, decimal digits only in the
    events and spaces or tabs between tokens; anything else, valid or not,
    is left to the line reader.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)
    head, *blocks = text.split("example")
    # "example" must open a line: every piece before one ends a line
    if any(not piece.rstrip(" \t").endswith("\n") for piece in [head] + blocks[:-1]):
        return None
    fields = [_HEADER_FIELD.fullmatch(tok) for tok in re.split(r"[ \t]+", head.strip(" \t\n"))]
    header = dict(field.groups() for field in fields if field is not None)
    if len(header) != 3 or len(fields) != 3:
        return None
    channels, classes, steps = (int(header[key]) for key in ("channels", "classes", "steps"))

    bits = np.empty((len(blocks), channels, -(-steps // 8)), dtype=np.uint8)
    labels = np.empty(len(blocks), dtype=np.int64)
    for index, block in enumerate(blocks):
        opening, _, events = block.partition("\n")
        label = _LABEL.fullmatch(opening)
        if label is None or int(label[1]) >= classes or events.encode().translate(None, _EVENT_CHARS):
            return None
        # each line's end becomes a -1 after its values: a line holds two values or none
        values = np.fromstring(events.replace("\n", " -1 ") + " -1", dtype=np.int64, sep=" ")
        per_line = np.diff(np.flatnonzero(values < 0), prepend=-1) - 1
        if ((per_line != 0) & (per_line != 2)).any():
            return None
        ch, t = values[values >= 0].reshape(-1, 2).T
        if (ch >= channels).any() or (t >= steps).any():
            return None
        # in range, ch * steps + t orders events by channel, then timestep: each
        # channel's events, kept in file order by a stable sort, must rise
        if (np.diff((ch * steps + t)[np.argsort(ch, kind="stable")]) <= 0).any():
            return None
        labels[index] = int(label[1])
        bits[index] = _packed(ch, t, (channels, steps))
    return SpikeDataset(bits=bits, labels=labels, num_classes=classes, length_steps=steps)


def _read_lines(path) -> SpikeDataset:
    """Read an event file line by line, raising at its first offending line."""
    header = None
    examples = []  # (label, [(channel, timestep), ...]) per example
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                header = _parse_header(path, lineno, line)
                continue
            parts = line.split()
            if line.startswith("example"):
                if len(parts) != 2 or not parts[1].startswith("label="):
                    _fail(path, lineno, "expected 'example label=<c>'")
                try:
                    label = int(parts[1][len("label="):])
                except ValueError:
                    _fail(path, lineno, "label must be an integer")
                if not 0 <= label < header["classes"]:
                    _fail(path, lineno, f"label {label} out of range [0, {header['classes']})")
                examples.append((label, []))
                last_time = {}  # channel -> last timestep seen in this example
                continue
            if not examples:
                _fail(path, lineno, "event line before any 'example' block")
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
            examples[-1][1].append((ch, t))

    if header is None:
        raise EventFileError(f"{path}: missing header line")
    shape = (header["channels"], header["steps"])
    bits = np.zeros((len(examples), shape[0], -(-shape[1] // 8)), dtype=np.uint8)
    for index, (_, events) in enumerate(examples):
        bits[index] = _packed(*np.array(events, dtype=np.int64).reshape(-1, 2).T, shape)
    labels = [label for label, _ in examples]
    return SpikeDataset(bits=bits, labels=labels, num_classes=header["classes"], length_steps=header["steps"])


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


def save_event_file(dataset: SpikeDataset, path):
    """Write a dataset in the format :func:`load_event_file` reads, channel by channel."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"channels={dataset.num_channels} classes={dataset.num_classes} steps={dataset.length_steps}\n")
        for index, label in enumerate(dataset.labels.tolist()):
            channels, steps = np.nonzero(dataset.row(index))
            fh.write(f"example label={label}\n")
            fh.write("".join(f"{ch} {t}\n" for ch, t in zip(channels.tolist(), steps.tolist())))
