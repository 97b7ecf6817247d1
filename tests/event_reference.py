"""The line-by-line event-file reader, kept as the reference that
:func:`tcsnn.spike.load_event_file` must agree with on every file: the same
dataset, or the same ``path:line: message``.

It reads the file one line at a time and stops at the first offending line.
It also takes a few inputs that ``load_event_file`` refuses on purpose:
non-ASCII digits and whitespace, ``_`` inside integers, ``example`` glued to
a longer word, and ``-0``.
"""

import numpy as np

from tcsnn.spike import EventFileError, SpikeDataset, _packed


def _fail(path, lineno: int, msg: str):
    raise EventFileError(f"{path}:{lineno}: {msg}")


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
