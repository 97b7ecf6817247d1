"""The sweep workload's outputs do not depend on the number of pool workers.

Runs the sweep config through `tcsnn run` with workers = 1 and workers = 2
on a reduced event file (2 examples per class, 100 steps) and compares the
output digests the benchmark records.
"""

import os

from check import digest
from tcsnn.cli import main
from workloads import WORKLOADS, config_text, write_event_file


def test_sweep_digest_same_with_one_and_two_workers(tmp_path):
    sweep = WORKLOADS["sweep"]
    events = str(tmp_path / "events.txt")
    write_event_file(events, seed=5, examples_per_class=2, steps=100)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config_text(sweep, 5, str(tmp_path / "unused"), events))

    digests = {}
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        assert main(["run", "--config", str(cfg), "--workers", str(workers), "--out", out]) == 0
        assert len([f for f in os.listdir(out) if f.startswith("run_g")]) == len(sweep.gammas)
        digests[workers] = digest(out)
    assert digests[1] == digests[2]
