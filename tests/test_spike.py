import itertools
import pickle

import numpy as np
import pytest
from event_reference import _read_lines
from hypothesis import example, given, settings
from hypothesis import strategies as st
from traces import poisson_encode

from tcsnn.config import SyntheticSpec
from tcsnn.spike import (
    EventFileError,
    SpikeDataset,
    load_event_file,
    save_event_file,
    synthetic_task,
)


def dataset(spikes, labels, classes) -> SpikeDataset:
    """A dataset of boolean ``(examples, channels, steps)`` spikes."""
    spikes = np.asarray(spikes, dtype=bool)
    return SpikeDataset(bits=np.packbits(spikes, axis=-1), labels=labels, num_classes=classes,
                        length_steps=spikes.shape[-1])


class TestDatasetType:
    def test_rows_unpack_the_spikes(self):
        spikes = np.zeros((2, 3, 10), dtype=bool)
        spikes[0, 0, 2] = spikes[1, 2, 9] = True
        ds = dataset(spikes, [0, 1], 2)
        assert ds.bits.shape == (2, 3, 2) and len(ds) == 2 and ds.num_channels == 3
        for i in range(2):
            assert ds.row(i).dtype == bool and np.array_equal(ds.row(i), spikes[i])

    def test_rejects_spikes_past_the_last_step(self):
        bits = np.packbits(np.ones((1, 1, 16), dtype=bool), axis=-1)
        with pytest.raises(ValueError, match="spikes past step 10"):
            SpikeDataset(bits=bits, labels=[0], num_classes=1, length_steps=10)
        with pytest.raises(ValueError, match="do not pack 17 steps"):
            SpikeDataset(bits=bits, labels=[0], num_classes=1, length_steps=17)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"example 1: label 5 out of range \[0, 2\)"):
            dataset(np.zeros((2, 1, 10)), [0, 5], 2)
        with pytest.raises(ValueError, match="1 labels for 2 examples"):
            dataset(np.zeros((2, 1, 10)), [0], 2)

    def test_arrays_are_read_only_copies(self):
        spikes = np.zeros((1, 2, 8), dtype=bool)
        bits, labels = np.packbits(spikes, axis=-1), np.array([1])
        ds = SpikeDataset(bits=bits, labels=labels, num_classes=2, length_steps=8)
        bits[0, 0, 0] = 0xFF
        labels[0] = 0
        assert not ds.bits.any() and ds.labels[0] == 1
        for arr in (ds.bits, ds.labels):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_arrays_stay_read_only_through_pickling(self):
        # a process pool that does not fork pickles the dataset
        ds = synthetic_task(2, 3, 12, 1, 2, seed=4)
        again = pickle.loads(pickle.dumps(ds))
        assert again == ds
        for arr in (again.bits, again.labels):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestPoissonEncode:
    def test_zero_rate_gives_empty_row(self):
        row = poisson_encode([0.0, 0.0], 50, seed=3)
        assert row.shape == (2, 50) and not row.any()

    def test_rate_one_fires_every_step(self):
        assert poisson_encode([1.0], 10, seed=3).all()

    def test_counts_match_binomial_statistics(self):
        # rate 0.1 over 10000 steps: mean 1000, sigma 30; stay within 3 sigma
        assert abs(int(poisson_encode([0.1], 10000, seed=1234).sum()) - 1000) <= 90

    def test_reproducible(self):
        a = poisson_encode([0.2, 0.7], 100, seed=9)
        b = poisson_encode([0.2, 0.7], 100, seed=9)
        assert np.array_equal(a, b)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            poisson_encode([1.5], 10, seed=0)
        with pytest.raises(ValueError):
            poisson_encode([-0.1], 10, seed=0)


class TestSyntheticTask:
    def test_zero_noise_examples_equal_template(self):
        ds = synthetic_task(2, 5, 50, jitter_steps=0, examples_per_class=4, seed=7,
                            deletion_prob=0.0, insertion_prob=0.0)
        for label in range(2):
            same = [ds.row(i) for i in np.flatnonzero(ds.labels == label)]
            for row in same[1:]:
                assert np.array_equal(row, same[0])

    def test_example_counting(self):
        ds = synthetic_task(5, 10, 40, 2, examples_per_class=20, seed=1)
        assert len(ds) == 100
        labels = ds.labels.tolist()
        assert all(labels.count(c) == 20 for c in range(5))

    def test_distinct_seeds_distinct_templates(self):
        a = synthetic_task(2, 8, 60, 0, 1, seed=1, deletion_prob=0.0, insertion_prob=0.0)
        b = synthetic_task(2, 8, 60, 0, 1, seed=2, deletion_prob=0.0, insertion_prob=0.0)
        assert a != b

    def test_classes_differ_for_generic_seed(self):
        ds = synthetic_task(2, 8, 60, 0, 1, seed=5, deletion_prob=0.0, insertion_prob=0.0)
        assert not np.array_equal(ds.row(0), ds.row(1))

    def test_jitter_bound_validated(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=2, num_channels=4, length_steps=20, jitter_steps=20, examples_per_class=1)

    def test_deterministic(self):
        a = synthetic_task(3, 6, 30, 2, 5, seed=42)
        b = synthetic_task(3, 6, 30, 2, 5, seed=42)
        assert a == b


class TestEventFile:
    def test_round_trip(self, tmp_path):
        ds = synthetic_task(3, 7, 25, 1, 4, seed=11)
        path = tmp_path / "task.events"
        save_event_file(ds, path)
        assert load_event_file(path) == ds

    def test_time_ordered_file_at_paper_scale(self, tmp_path):
        # 78 channels x 500 steps, each example's events in time order with
        # the channels interleaved, as a sensor emits them
        ds = synthetic_task(2, 78, 500, 4, 2, seed=3)
        lines = ["channels=78 classes=2 steps=500"]
        for i, label in enumerate(ds.labels):
            lines.append(f"example label={label}")
            steps, channels = np.nonzero(ds.row(i).T)
            lines += [f"{ch} {t}" for ch, t in zip(channels, steps)]
        path = tmp_path / "task.events"
        path.write_text("\n".join(lines) + "\n")
        assert load_event_file(path) == _read_lines(path) == ds

    def test_single_event(self, tmp_path):
        path = tmp_path / "one.events"
        path.write_text("channels=5 classes=2 steps=10\nexample label=1\n3 7\n")
        ds = load_event_file(path)
        assert ds.labels.tolist() == [1]
        assert ds.row(0)[3, 7] and ds.row(0).sum() == 1

    def test_empty_example(self, tmp_path):
        path = tmp_path / "empty.events"
        path.write_text("channels=3 classes=2 steps=10\nexample label=0\n")
        ds = load_event_file(path)
        assert ds.row(0).shape == (3, 10) and not ds.row(0).any()

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.events"
        path.write_text("# header next\nchannels=2 classes=2 steps=5\nexample label=0  # first\n0 1\n# done\n")
        ds = load_event_file(path)
        assert ds.row(0)[0].sum() == 1

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_event_file("/nonexistent/file.events")


# valid files with a header token without "=", signs, other whitespace or other
# line ends, or no final newline: both events are on channel 1
ODD_BUT_VALID = {
    "header extra token": "channels=3 classes=2 steps=10 v2\nexample label=1\n1 2\n1 5\n",
    "signed integers": "channels=3 classes=2 steps=10\nexample label=+1\n1 2\n+1 5\n",
    "vertical tab": "channels=3 classes=2 steps=10\nexample label=1\n1\x0b2\n1 5\n",
    "no final newline": "channels=3 classes=2 steps=10",
    "crlf and form feed": "channels=3 classes=2 steps=10\r\nexample\x0clabel=1\r\n\x0c1 2\r\n1\x1f5",
}


@pytest.mark.parametrize("name", ODD_BUT_VALID)
def test_odd_but_valid_files_load(tmp_path, name):
    path = tmp_path / "odd.events"
    path.write_bytes(ODD_BUT_VALID[name].encode())
    events = np.zeros((0, 3, 10)) if name == "no final newline" else [[[0] * 10, [0, 0, 1, 0, 0, 1] + [0] * 4, [0] * 10]]
    assert load_event_file(path) == _read_lines(path) == dataset(events, [1] * len(events), 2)


@pytest.mark.parametrize("keys", list(itertools.permutations(("channels=3", "classes=2", "steps=10"))))
def test_header_keys_load_in_any_order(tmp_path, keys):
    path = tmp_path / "reordered.events"
    path.write_text(" ".join(keys) + "\nexample label=1\n1 2\n1 5\n")
    expected = dataset([[[0] * 10, [0, 0, 1, 0, 0, 1] + [0] * 4, [0] * 10]], [1], 2)
    assert load_event_file(path) == _read_lines(path) == expected


@st.composite
def datasets(draw):
    channels, classes, steps = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    spikes = st.lists(st.lists(st.booleans(), min_size=steps, max_size=steps), min_size=channels, max_size=channels)
    examples = draw(st.lists(st.tuples(spikes, st.integers(0, classes - 1)), max_size=4))
    rows = np.array([row for row, _ in examples], dtype=bool).reshape(len(examples), channels, steps)
    return dataset(rows, [label for _, label in examples], classes)


# how one written line is dressed: (lines before it, indent, token separator, tail)
DRESS = st.tuples(
    st.sampled_from(("", "\n", "  \t\n", "# comment\n")),
    st.sampled_from(("", " ", "\t")),
    st.sampled_from((" ", "\t", " \t ")),
    st.sampled_from(("", "  ", "\t", " # note")),
)
# an empty example and an empty channel, each line dressed with comments, blank lines and tabs
EMPTY_PARTS = dataset([[[0, 0, 0, 0], [1, 0, 0, 1]], [[0, 0, 0, 0], [0, 0, 0, 0]]], [1, 0], 2)


def interleave(lines: list, delays: list) -> list:
    """Each example's event lines ordered by timestep plus a per-channel delay:
    the channels interleave, and each keeps its own order."""
    out, block = [], []
    for line in lines + ["example"]:
        if line.startswith("example") or line.startswith("channels"):
            out += sorted(block, key=lambda ev: int(ev.split()[1]) + delays[int(ev.split()[0]) % len(delays)])
            out.append(line)
            block = []
        else:
            block.append(line)
    return out[:-1]


@given(ds=datasets(), dress=st.lists(DRESS, min_size=1, max_size=6),
       delays=st.lists(st.integers(0, 12), min_size=1, max_size=4))
@example(ds=EMPTY_PARTS, dress=[("# c\n\n", "\t", "\t", " # tail"), ("\t\n", "", " ", "\t")], delays=[0])
def test_save_then_load_round_trips(tmp_path_factory, ds, dress, delays):
    # and a dressed, interleaved file loads as the reference reader reads it
    path = tmp_path_factory.mktemp("events") / "task.events"
    save_event_file(ds, path)
    assert load_event_file(path) == ds
    lines = interleave(path.read_text().splitlines(), delays)
    dressed = []
    for i, line in enumerate(lines):
        before, indent, sep, tail = dress[i % len(dress)]
        dressed.append(before + indent + sep.join(line.split(" ")) + tail + "\n")
    path.write_text("".join(dressed))
    assert load_event_file(path) == _read_lines(path) == ds


HEADER = "channels=3 classes=2 steps=10\n"
# two examples with a blank line, a comment and a tab-only line: the next line is line 9
BODY = HEADER + "example label=0\n0 1\n\n# note\nexample label=1\n1 2\n\t\n"
# one case per kind of malformed line; each message is the one the line-by-line reader gave
MALFORMED = {
    "header keys": ("channels=3 classes=2\n", ":1: header must be 'channels=<n> classes=<k> steps=<T>'"),
    "header integers": ("channels=3 classes=two steps=10\n", ":1: header values must be integers"),
    "header positive": ("channels=0 classes=2 steps=10\n", ":1: header values must be positive"),
    "event before example": (HEADER + "# no example yet\n0 1\n", ":3: event line before any 'example' block"),
    "example line": (BODY + "example 1\n", ":9: expected 'example label=<c>'"),
    "label integer": (BODY + "example label=x\n", ":9: label must be an integer"),
    "label range": (BODY + "example label=2\n", ":9: label 2 out of range [0, 2)"),
    "token count": (BODY + "0 1 2\n", ":9: expected '<channel> <timestep>'"),
    "integer parsing": (BODY + "0 x\n", ":9: channel and timestep must be integers"),
    "channel range": (BODY + "3 1\n", ":9: channel 3 out of range [0, 3)"),
    "timestep range": (BODY + "0 10\n", ":9: timestep 10 out of range [0, 10)"),
    "monotonic order": (BODY + "1 2\n", ":9: non-monotonic timestamp 2 on channel 1"),
    "in the first example": (HEADER + "example label=0\n0 5\n0 3\n", ":4: non-monotonic timestamp 3 on channel 0"),
    "first of several": (BODY + "0 5\n5 5\n0 1\n", ":10: channel 5 out of range [0, 3)"),
    "missing header": ("# only a comment\n\n", ": missing header line"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_line_reports_path_line_and_message(tmp_path, name):
    text, where_what = MALFORMED[name]
    path = tmp_path / "bad.events"
    path.write_text(text)
    with pytest.raises(EventFileError) as err:
        load_event_file(path)
    assert str(err.value) == f"{path}{where_what}"


# inputs the reference reader takes and load_event_file refuses, each at its line
NARROWED = {
    "non-ASCII digit": (HEADER + "example label=1\n\u0661 2\n", ":3: channel and timestep must be integers"),
    "non-ASCII whitespace": (HEADER + "example label=1\n1\u00a02\n", ":3: expected '<channel> <timestep>'"),
    "underscore in an integer": (HEADER + "example label=1\n1 0_5\n", ":3: channel and timestep must be integers"),
    "glued example": (HEADER + "examples label=1\n1 2\n", ":2: expected 'example label=<c>'"),
    "signed zero": (HEADER + "example label=1\n-0 2\n", ":3: channel and timestep must be integers"),
}


@pytest.mark.parametrize("name", NARROWED)
def test_narrowed_input_fails_at_its_line(tmp_path, name):
    text, where_what = NARROWED[name]
    path = tmp_path / "narrow.events"
    path.write_text(text, encoding="utf-8")
    assert len(_read_lines(path)) == 1
    with pytest.raises(EventFileError) as err:
        load_event_file(path)
    assert str(err.value) == f"{path}{where_what}"


def test_non_utf8_file_names_the_line_of_its_first_bad_byte(tmp_path):
    path = tmp_path / "latin1.events"
    path.write_bytes(b"channels=3 classes=2 steps=10\r\n# caf\xc3\xa9\r\nexample label=1\r\n1 2 # caf\xe9\n1 \xff\n")
    with pytest.raises(EventFileError) as err:
        load_event_file(path)
    assert str(err.value) == f"{path}:4: not UTF-8 text"


def test_header_too_large_to_hold_names_its_line(tmp_path):
    # packed, one example of this header takes 1.11 PiB, so the allocation fails at once
    path = tmp_path / "huge.events"
    path.write_text("# too large\nchannels=100000000 classes=2 steps=100000000\nexample label=0\n0 0\n")
    with pytest.raises(EventFileError) as err:
        load_event_file(path)
    assert str(err.value) == f"{path}:2: 100000000 channels x 100000000 steps per example do not fit in memory"


# how a line of a drawn file is dressed: (lines before it, indent, token separator, tail, line end)
LINE_DRESS = st.tuples(
    st.sampled_from(("", "\n", " \t\n", "# note\n", "#example label=9 -0\n")),
    st.sampled_from(("", " ", "\t", "\x0b")),
    st.sampled_from((" ", "\t", "\x0b", "\x0c", "\x1f", " \t", "  ")),
    st.sampled_from(("", " ", "\t", " # 1 2 3")),
    st.sampled_from(("\n", "\r\n", "\r")),
)
# what a corrupted line holds: integers (never -0), signs, junk, and header or example words
JUNK_TOKEN = st.sampled_from((
    "-3", "-1", "2", "+3", "007", "12", "15", "99999999999999999999", "+", "-", "x", "1-2", "+-1", "2+", "2+3", "++3",
    "example", "label=1", "label=+0", "label=x", "label=-1", "label=", "label=5", "channels=2", "classes=x", "steps=0",
))


@st.composite
def event_texts(draw):
    """An event file over an ASCII alphabet: signs, leading zeros, any ASCII
    whitespace, \\n, \\r\\n or \\r line ends, comments, blank lines, header keys in
    any order and empty examples, and perhaps one corrupted line."""
    channels, classes, steps = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    prefixes = itertools.cycle(draw(st.lists(st.sampled_from(("", "+", "0", "+0")), min_size=1, max_size=4)))

    def number(value):
        return next(prefixes) + str(value)

    header = [f"channels={number(channels)}", f"classes={number(classes)}", f"steps={number(steps)}"]
    lines = [draw(st.permutations(header + draw(st.lists(st.sampled_from(("v2", "example")), max_size=1))))]
    delays = draw(st.lists(st.integers(0, 12), min_size=channels, max_size=channels))
    cells = st.sets(st.integers(0, channels * steps - 1), max_size=6)  # ch * steps + t
    for label, events in draw(st.lists(st.tuples(st.integers(0, classes - 1), cells), min_size=1, max_size=3)):
        lines.append(["example", f"label={number(label)}"])
        events = sorted((divmod(cell, steps) for cell in events), key=lambda ev: (ev[1] + delays[ev[0]], ev[1]))
        lines += [[number(ch), number(t)] for ch, t in events]
    kind = draw(st.sampled_from(("none", "mutate", "insert", "repeat")))
    at = draw(st.sampled_from(range(len(lines) + (kind == "insert"))))
    if kind == "mutate":  # a token replaced, dropped or added
        tokens = lines[at] = list(lines[at])
        cut = draw(st.sampled_from(range(len(tokens))))
        tokens[cut:cut + 1] = draw(st.sampled_from(([draw(JUNK_TOKEN)], [], [draw(JUNK_TOKEN), tokens[cut]])))
    elif kind == "insert":
        lines.insert(at, draw(st.lists(JUNK_TOKEN, max_size=3)))
    elif kind == "repeat":
        lines.insert(at, lines[at])
    dress = itertools.cycle(draw(st.lists(LINE_DRESS, min_size=1, max_size=4)))
    text = "".join(before + indent + sep.join(tokens) + tail + end
                   for tokens, (before, indent, sep, tail, end) in zip(lines, dress))
    return text if draw(st.booleans()) else text[:-1]


def dataset_or_message(read, path):
    try:
        return read(path)
    except EventFileError as err:
        return str(err)


@settings(max_examples=200)
@given(text=event_texts())
@example(text="channels=2 classes=1 steps=10\nexample label=0\n1 2\n0 15\n")  # not out of order at line 3
@example(text="channels=3 classes=1 steps=10\nexample label=0\n0 1\n1 2+3\n")
@example(text="channels=1 classes=1 steps=1\nexample label=0\n3 -2\n")  # the channel is named first
def test_load_agrees_with_the_reference_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("agree") / "drawn.events"
    path.write_bytes(text.encode())
    assert dataset_or_message(load_event_file, path) == dataset_or_message(_read_lines, path)
