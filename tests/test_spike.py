import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from traces import poisson_encode

from tcsnn.config import SyntheticSpec
from tcsnn.spike import (
    BinarySpikeTrain,
    EventFileError,
    SpikeDataset,
    dense_to_trains,
    load_event_file,
    save_event_file,
    synthetic_task,
    trains_to_dense,
)


class TestTrainTypes:
    def test_rejects_decreasing_timesteps(self):
        with pytest.raises(ValueError):
            BinarySpikeTrain(0, [3, 2], 10)

    def test_rejects_event_past_end(self):
        with pytest.raises(ValueError):
            BinarySpikeTrain(0, [9, 10], 10)

    def test_events_are_read_only(self):
        tr = BinarySpikeTrain(0, [1, 5], 10)
        with pytest.raises(ValueError):
            tr.events[0] = 2

    def test_events_stay_read_only_through_pickling(self):
        # a process pool pickles each task's dataset
        trains = (BinarySpikeTrain(0, [1, 5], 10),)
        for tr in pickle.loads(pickle.dumps(trains)):
            with pytest.raises(ValueError):
                tr.events[0] = 2
        assert pickle.loads(pickle.dumps(trains)) == trains

    def test_dense_round_trip(self):
        dense = np.zeros((3, 8), dtype=np.int64)
        dense[0, 2] = 1
        dense[2, 7] = 1
        trains = dense_to_trains(dense)
        assert np.array_equal(trains_to_dense(trains), dense)


class TestPoissonEncode:
    def test_zero_rate_gives_empty_train(self):
        trains = poisson_encode([0.0, 0.0], 50, seed=3)
        assert all(tr.spike_count == 0 for tr in trains)

    def test_rate_one_fires_every_step(self):
        (tr,) = poisson_encode([1.0], 10, seed=3)
        assert np.array_equal(tr.events, np.arange(10))

    def test_counts_match_binomial_statistics(self):
        # rate 0.1 over 10000 steps: mean 1000, sigma 30; stay within 3 sigma
        (tr,) = poisson_encode([0.1], 10000, seed=1234)
        assert abs(tr.spike_count - 1000) <= 90

    def test_reproducible(self):
        a = poisson_encode([0.2, 0.7], 100, seed=9)
        b = poisson_encode([0.2, 0.7], 100, seed=9)
        assert a == b

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
            same = [trains for trains, lab in ds.examples if lab == label]
            for trains in same[1:]:
                assert trains == same[0]

    def test_example_counting(self):
        ds = synthetic_task(5, 10, 40, 2, examples_per_class=20, seed=1)
        assert len(ds) == 100
        labels = [lab for _, lab in ds.examples]
        assert all(labels.count(c) == 20 for c in range(5))

    def test_distinct_seeds_distinct_templates(self):
        a = synthetic_task(2, 8, 60, 0, 1, seed=1, deletion_prob=0.0, insertion_prob=0.0)
        b = synthetic_task(2, 8, 60, 0, 1, seed=2, deletion_prob=0.0, insertion_prob=0.0)
        assert a != b

    def test_classes_differ_for_generic_seed(self):
        ds = synthetic_task(2, 8, 60, 0, 1, seed=5, deletion_prob=0.0, insertion_prob=0.0)
        (t0, _), (t1, _) = ds.examples
        assert t0 != t1

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
        for trains, label in ds.examples:
            lines.append(f"example label={label}")
            lines += [f"{ch} {t}" for t, ch in sorted((int(t), tr.channel_id) for tr in trains for t in tr.events)]
        path = tmp_path / "task.events"
        path.write_text("\n".join(lines) + "\n")
        assert load_event_file(path) == ds

    def test_single_event(self, tmp_path):
        path = tmp_path / "one.events"
        path.write_text("channels=5 classes=2 steps=10\nexample label=1\n3 7\n")
        ds = load_event_file(path)
        trains, label = ds.examples[0]
        assert label == 1
        assert trains[3].spike_count == 1 and trains[3].events[0] == 7
        assert sum(tr.spike_count for tr in trains) == 1

    def test_empty_example(self, tmp_path):
        path = tmp_path / "empty.events"
        path.write_text("channels=3 classes=2 steps=10\nexample label=0\n")
        ds = load_event_file(path)
        trains, _ = ds.examples[0]
        assert all(tr.spike_count == 0 for tr in trains)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.events"
        path.write_text("# header next\nchannels=2 classes=2 steps=5\nexample label=0  # first\n0 1\n# done\n")
        ds = load_event_file(path)
        assert ds.examples[0][0][0].spike_count == 1

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_event_file("/nonexistent/file.events")

    def test_dataset_invariants(self):
        tr = BinarySpikeTrain(0, [1], 10)
        with pytest.raises(ValueError):
            SpikeDataset(examples=(((tr,), 5),), num_channels=1, num_classes=2, length_steps=10)


@st.composite
def datasets(draw):
    channels, classes, steps = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    train = st.lists(st.integers(0, steps - 1), unique=True, max_size=steps).map(sorted)
    example = st.tuples(st.lists(train, min_size=channels, max_size=channels), st.integers(0, classes - 1))
    return SpikeDataset(
        examples=tuple(
            (tuple(BinarySpikeTrain(ch, events, steps) for ch, events in enumerate(trains)), label)
            for trains, label in draw(st.lists(example, max_size=4))
        ),
        num_channels=channels,
        num_classes=classes,
        length_steps=steps,
    )


# how one written line is dressed: (lines before it, indent, token separator, tail)
DRESS = st.tuples(
    st.sampled_from(("", "\n", "  \t\n", "# comment\n")),
    st.sampled_from(("", " ", "\t")),
    st.sampled_from((" ", "\t", " \t ")),
    st.sampled_from(("", "  ", "\t", " # note")),
)
# an empty example and an empty channel, each line dressed with comments, blank lines and tabs
EMPTY_PARTS = SpikeDataset(
    examples=(
        ((BinarySpikeTrain(0, [], 4), BinarySpikeTrain(1, [0, 3], 4)), 1),
        ((BinarySpikeTrain(0, [], 4), BinarySpikeTrain(1, [], 4)), 0),
    ),
    num_channels=2,
    num_classes=2,
    length_steps=4,
)


@given(ds=datasets(), dress=st.lists(DRESS, min_size=1, max_size=6))
@example(ds=EMPTY_PARTS, dress=[("# c\n\n", "\t", "\t", " # tail"), ("\t\n", "", " ", "\t")])
def test_save_then_load_round_trips(tmp_path_factory, ds, dress):
    path = tmp_path_factory.mktemp("events") / "task.events"
    save_event_file(ds, path)
    assert load_event_file(path) == ds
    lines = path.read_text().splitlines()
    dressed = []
    for i, line in enumerate(lines):
        before, indent, sep, tail = dress[i % len(dress)]
        dressed.append(before + indent + sep.join(line.split(" ")) + tail + "\n")
    path.write_text("".join(dressed))
    assert load_event_file(path) == ds


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
