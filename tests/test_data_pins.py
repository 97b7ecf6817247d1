"""The data path, pinned by hashes recorded before the dataset became one array.

The synthetic generator must draw from its random stream in the same order,
and the event-file writer must write the same bytes, whatever form a dataset
takes in memory: the benchmark digests and every result downstream depend on
both. The spikes are hashed as a C-ordered ``(examples, channels, steps)``
uint8 array, the labels as little-endian int64.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from tcsnn.config import SyntheticSpec
from tcsnn.spike import save_event_file, synthetic_task


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _arrays(ds):
    spikes = np.stack([ds.row(i) for i in range(len(ds))]).astype(np.uint8)
    labels = ds.labels.astype("<i8")
    return spikes, labels


# seed -> (spikes, labels) of the default task
DEFAULT_TASK = {
    0: ("5fd130c18fa5cbfaba31f3e0bf2223a075d7b48aa3e02bfe76d378965886463d",
        "c0c7c9243af97fe546ccf6335eb4758d6b95a95e012d7b55d7982d98771b5909"),
    3: ("6373a89202e15909f193bb6156e5c960c34dccdd02069d77f5b0d9dee7e023a2",
        "c0c7c9243af97fe546ccf6335eb4758d6b95a95e012d7b55d7982d98771b5909"),
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_TASK))
def test_default_synthetic_task_is_unchanged(seed):
    spikes, labels = _arrays(synthetic_task(seed=seed, **asdict(SyntheticSpec())))
    assert spikes.shape == (120, 78, 500)
    assert (_sha(spikes), _sha(labels)) == DEFAULT_TASK[seed]


# 2 classes x 2 examples of 3 channels x 8 steps: example 2 has no events,
# and every other example has an empty channel
SMALL_FILE = "a59cf2ca96c7a63db44446adbaf600d520bb852c0cd90e0ce4bae4599246c252"


def test_event_file_bytes_are_unchanged(tmp_path):
    ds = synthetic_task(2, 3, 8, 1, 2, seed=0, template_rate=0.15, deletion_prob=0.5, insertion_prob=0.0)
    path = tmp_path / "small.events"
    save_event_file(ds, path)
    text = path.read_bytes()
    assert b"example label=1\nexample label=1\n" in text  # the empty example
    assert hashlib.sha256(text).hexdigest() == SMALL_FILE
