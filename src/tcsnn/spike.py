"""Spike datasets, synthetic task generation and line-oriented event-file I/O.

All timing is in dimensionless timesteps. Spikes are binary: at most one per
channel and step. A :class:`SpikeDataset` holds every example's spikes in one
read-only array, bit-packed along time, and a label vector. The engine takes
an example row, one example's boolean ``(channels, steps)`` array, from
:meth:`SpikeDataset.row`. Generation is pure given a seed.

An event file is a header line, then blocks of ``<channel> <timestep>`` lines,
each opened by an ``example label=<c>`` line. :func:`load_event_file`, the one
reader, states the grammar; it parses each block with one numpy call, checks
it on arrays and names a malformed file's first offending line.
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


def read_text(path, error: type[ValueError]) -> str:
    """The text at ``path``, each line ending in ``\\n``; a byte that is not UTF-8 raises ``error`` at its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:  # a bad byte reads as a lone surrogate
        text = fh.read()
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as err:  # at the first lone surrogate
            lineno = text.count("\n", 0, err.start) + 1
            raise error(f"{path}:{lineno}: not UTF-8 text") from None
    return text


def load_event_file(path) -> SpikeDataset:
    """Load a dataset from an event file; the only reader of the format.

    Grammar: UTF-8 text whose lines end in ``\\n``, ``\\r\\n`` or ``\\r``;
    ``#`` starts a comment and blank lines are skipped. The first remaining
    line is the header ``channels=<n> classes=<k> steps=<T>``: keys in any
    order, tokens without ``=`` ignored. Then come blocks, each opened by a
    line ``example label=<c>`` and holding ``<channel> <timestep>`` lines,
    each channel's timesteps strictly increasing. Tokens are separated by
    ASCII whitespace. Integers are ASCII digits with an optional sign; a
    zero takes no ``-``. A malformed file raises :class:`EventFileError`
    naming its first offending line as ``path:line``.
    """
    try:
        text = read_text(path, EventFileError)
    except FileNotFoundError:
        raise FileNotFoundError(f"event file not found: {path}") from None

    def fail(lineno: int, msg: str):
        raise EventFileError(f"{path}:{lineno}: {msg}")

    def line(pos: int) -> int:
        return text.count("\n", 0, pos) + 1

    if "#" in text:
        text = _COMMENT.sub("", text)
    start = len(text) - len(text.lstrip(_BLANK))
    if start == len(text):
        raise EventFileError(f"{path}: missing header line")
    end = text.find("\n", start) % (len(text) + 1)  # the header line's \n, or the end of the text
    fields = dict(tok.split("=", 1) for tok in _TOKEN.findall(text[start:end]) if "=" in tok)
    if set(fields) != {"channels", "classes", "steps"}:
        fail(line(start), "header must be 'channels=<n> classes=<k> steps=<T>'")
    if not all(map(_INT.fullmatch, fields.values())):
        fail(line(start), "header values must be integers")
    channels, classes, steps = (int(fields[key]) for key in ("channels", "classes", "steps"))
    if min(channels, classes, steps) < 1:
        fail(line(start), "header values must be positive")

    # the header line opens the first piece, and an "example" that does not
    # open its line is glued back to the text around it
    blocks = [[]]
    for piece in text[start:].split("example"):
        if blocks[-1] and blocks[-1][-1].rstrip(_WS).endswith("\n"):
            blocks.append([])
        blocks[-1].append(piece)
    head, *blocks = ["example".join(block) for block in blocks]
    gap = head[end - start:]
    if gap.strip(_BLANK):
        fail(line(end + len(gap) - len(gap.lstrip(_BLANK))), "event line before any 'example' block")

    pos = start + len(head) + len("example")  # where the current block starts in text
    try:
        bits = np.empty((len(blocks), channels, -(-steps // 8)), dtype=np.uint8)
    except MemoryError:
        fail(line(start), f"{channels} channels x {steps} steps per example do not fit in memory")
    labels = np.empty(len(blocks), dtype=np.int64)
    for index, block in enumerate(blocks):
        opening, _, events = block.partition("\n")
        found = _LABEL.fullmatch(opening)
        if found is None:
            fail(line(pos), "expected 'example label=<c>'")
        if not _INT.fullmatch(found[1]):
            fail(line(pos), "label must be an integer")
        label = int(found[1])
        if not 0 <= label < classes:
            fail(line(pos), f"label {label} out of range [0, {classes})")
        ch, t, bad = _events(events, channels, steps)
        if bad:
            fail(line(pos) + bad, _event_error(events.split("\n")[bad - 1], channels, steps))
        labels[index] = label
        bits[index] = _packed(ch, t, (channels, steps))
        pos += len(block) + len("example")
    return SpikeDataset(bits=bits, labels=labels, num_classes=classes, length_steps=steps)


_WS = " \t\v\f\x1c\x1d\x1e\x1f"  # the ASCII whitespace of str.split, less the line ends
_BLANK = _WS + "\n"
_TOKEN = re.compile(f"[^{_WS}]+")
_LABEL = re.compile(f"[{_WS}]+label=([^{_WS}]*)[{_WS}]*")  # what follows "example"
_INT = re.compile(r"\+?[0-9]+|-0*[1-9][0-9]*")
_COMMENT = re.compile(r"#[^\n]*")
# events keep digits, signs, spaces and line ends; other whitespace becomes a space, anything else "?"
_ALPHABET = bytes(c if chr(c) in "0123456789+- \n" else ord(" ") if chr(c) in _WS else ord("?") for c in range(256))


def _events(events: str, channels: int, steps: int):
    """A block's event channels and timesteps, and the number of its first
    offending line, 1 for the first line of ``events``, or 0 if there is none."""
    raw = f"\n{events}\n".encode().translate(_ALPHABET)  # line k of raw is line k of events
    # a stray character, any "-" (no valid event holds one) or a "+" that opens no integer
    firsts = [raw.find(b"?"), raw.find(b"-")]
    if b"+" in raw:
        arr = np.frombuffer(raw, dtype=np.uint8)
        plus = np.flatnonzero(arr == ord("+"))
        after = arr[plus + 1]
        firsts += plus[(arr[plus - 1] > ord(" ")) | (after < ord("0")) | (after > ord("9"))][:1].tolist()
    first = min((pos for pos in firsts if pos >= 0), default=len(raw))
    # the lines before its line hold integers only: each line's end becomes a -1 after its values
    values = np.fromstring(raw[:raw.rfind(b"\n", 0, first) + 1].replace(b"\n", b" -1 "), dtype=np.int64, sep=" ")
    ends = np.flatnonzero(values < 0)
    per_line = np.diff(ends, prepend=-1) - 1
    wrong = np.flatnonzero((per_line != 0) & (per_line != 2))
    bad = wrong[0] if wrong.size else len(ends)  # else the line of the first bad character, or past the last
    values = values[:ends[bad - 1]]
    ch, t = values[values >= 0].reshape(-1, 2).T
    out = np.flatnonzero((ch >= channels) | (t >= steps))
    # each channel's events, kept in file order by a stable sort, must rise
    order = np.argsort(ch, kind="stable")
    cs, ts = ch[order], t[order]
    late = order[1:][(cs[1:] == cs[:-1]) & (ts[1:] <= ts[:-1])]
    flagged = np.concatenate([out[:1], late])
    if flagged.size:  # the line of the first event out of range or out of order
        bad = min(bad, np.flatnonzero(per_line == 2)[flagged.min()])
    return ch, t, 0 if first == len(raw) and bad == len(ends) else bad


def _event_error(line: str, channels: int, steps: int) -> str:
    """The message for a malformed event line, from the first check it fails."""
    parts = _TOKEN.findall(line)
    if len(parts) != 2:
        return "expected '<channel> <timestep>'"
    if not all(map(_INT.fullmatch, parts)):
        return "channel and timestep must be integers"
    ch, t = map(int, parts)
    if not 0 <= ch < channels:
        return f"channel {ch} out of range [0, {channels})"
    if not 0 <= t < steps:
        return f"timestep {t} out of range [0, {steps})"
    return f"non-monotonic timestamp {t} on channel {ch}"


def save_event_file(dataset: SpikeDataset, path):
    """Write a dataset in the format :func:`load_event_file` reads, channel by channel."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"channels={dataset.num_channels} classes={dataset.num_classes} steps={dataset.length_steps}\n")
        for index, label in enumerate(dataset.labels.tolist()):
            channels, steps = np.nonzero(dataset.row(index))
            fh.write(f"example label={label}\n")
            fh.write("".join(f"{ch} {t}\n" for ch, t in zip(channels.tolist(), steps.tolist())))
