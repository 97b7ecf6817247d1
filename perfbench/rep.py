"""One repetition of a workload in a fresh interpreter, as `tcsnn run` does it.

Usage: python3 rep.py SPEC_JSON

SPEC_JSON holds: workload, seed, config (path), event_path, result (path)
and, for a traced repetition, trace_dir and spans (path). Set-up ends right
before the call into run_experiment; the timestamps written to the result
file use the system-wide monotonic clock, so the parent can measure set-up
from the moment it started this interpreter.
"""

import json
import sys
import time


def main(spec: dict) -> None:
    import tcsnn.cli
    from workloads import WORKLOADS, write_event_file

    w = WORKLOADS[spec["workload"]]
    tracer = None
    if spec.get("trace_dir"):
        from tracer import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install(w.model, w.epochs)
    if w.event_file:
        write_event_file(spec["event_path"], spec["seed"], w.examples_per_class)
    config = tcsnn.cli.load_experiment_config(spec["config"])
    setup_end = time.monotonic()
    reports = tcsnn.cli.run_experiment(config)
    run_end = time.monotonic()

    import numpy

    result = {
        "setup_end": setup_end,
        "run_end": run_end,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "tcsnn": tcsnn.__version__,
    }
    if tracer is not None:
        from tracer import layer_metrics

        records = tracer.gather()
        tracer.self_check(records, w.gammas, config.workers)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        counters = [r.counters for r in reports]
        result["layers"], result["per_gamma"] = layer_metrics(tracer, records, counters, config.workers)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
