"""Benchmark of the `tcsnn run` pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload train|sweep|burst --seed N --seconds S --trace 0|1

Each repetition is one experiment in a fresh interpreter, with the sources
under src/ on its path. Repetitions run back to back until the next one
would end past --seconds (at least one; with --trace 1, at least one plain
and one traced). Every repetition's outputs are checked and digested; a
repetition that raises, exits non-zero, fails a check or gives another
digest counts as failed.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end medians
over the repetitions; with --trace 1 they are the per-layer medians over
the traced repetitions plus the tracing overhead. The line before it holds
the details: provenance, the output digest, every repetition and the
per-ratio breakdown. Both are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from check import check_outputs, digest
from workloads import WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "sim_steps_per_s": "steps/s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "spike.make_dataset_s": "s",
    "spike.make_dataset.calls": "count",
    "spike.trains_to_dense_s": "s",
    "compress.compress_train_s": "s",
    "compress.compress_train.calls": "count",
    "fixedpoint.saturate_s": "s",
    "fixedpoint.saturate.calls": "count",
    "fixedpoint.saturate.us_per_call": "us",
    "neuron.synapse_step_s": "s",
    "neuron.synapse_step.us_per_call": "us",
    "neuron.step_s": "s",
    "neuron.step.us_per_call": "us",
    "network.build_lsm_s": "s",
    "network.simulate.self_s": "s",
    "network.simulate.calls": "count",
    "network.simulate.eval_ns_per_step.g1": "ns",
    "network.simulate.energy_ns_per_step.g1": "ns",
    "network.reservoir_useful_frac": "ratio",
    "network.reservoir_events_per_step": "events/step",
    "network.synaptic_ops": "count",
    "network.spike_events": "count",
    "fixedpoint.saturations": "count",
    "network.host_speedup.gmax": "ratio",
    "learning.learner_s": "s",
    "learning.evaluate_s": "s",
    "metrics.energy_estimate_s": "s",
    "metrics.write_s": "s",
    "cli.run_single_s.g1": "s",
    "cli.worker_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def git_commit() -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_s() -> float | None:
    """Machine-wide steal time so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its resource usage (its reaped pool workers included)."""
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:  # interrupted or terminated: take the repetition down too
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # nothing the repetition started may outlive it
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return usage, timed_out


def run_rep(workdir: str, w, seed: int, index: int, traced: bool, timeout: float, out_dir: str) -> dict:
    rep_dir = os.path.join(workdir, f"rep{index}")
    os.makedirs(rep_dir)
    run_out = os.path.join(rep_dir, "out")
    config = os.path.join(rep_dir, "experiment.cfg")
    events = os.path.join(rep_dir, "events.txt")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(w, seed, run_out, events))
    spec = {"workload": w.name, "seed": seed, "config": config, "event_path": events,
            "result": os.path.join(rep_dir, "result.json")}
    if traced:
        spec["trace_dir"] = os.path.join(rep_dir, "trace")
        spec["spans"] = os.path.join(out_dir, f"spans-{w.name}-seed{seed}-rep{index}.json")
        os.makedirs(spec["trace_dir"])
    env = dict(os.environ, TMPDIR=rep_dir, **{v: "1" for v in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src

    rep = {"index": index, "traced": traced, "problems": []}
    log_path = os.path.join(rep_dir, "log.txt")
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
                                cwd=rep_dir, env=env, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        usage, timed_out = _wait(proc, timeout)
    rep["wall_s"] = time.monotonic() - start
    if timed_out or proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        reason = f"timed out after {timeout:.0f} s" if timed_out else f"exit code {proc.returncode}"
        rep["problems"].append(f"repetition {index}: {reason}\n{tail}")
        return rep
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    rep.update(
        setup_s=result["setup_end"] - start,
        run_s=result["run_end"] - result["setup_end"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        versions={k: result[k] for k in ("python", "numpy", "tcsnn")},
    )
    rep["sim_steps_per_s"] = w.sim_steps / rep["run_s"]
    for key in ("layers", "per_gamma"):
        if key in result:
            rep[key] = result[key]
    rep["problems"] += check_outputs(run_out, w, seed)
    rep["digest"] = digest(run_out)
    return rep


def _median(reps: list, key: str, group: str | None = None):
    values = [r[group][key] if group else r[key] for r in reps]
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "tcsnn", "__init__.py")):
        print(f"error: no tcsnn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    steal_before = steal_s()
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=tmp_root)
    reps = []
    began = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            remaining = RUN_LIMIT_S - (time.monotonic() - began)
            reps.append(run_rep(workdir, w, args.seed, len(reps), traced, min(REP_TIMEOUT_S, remaining), out_dir))
            if reps[-1]["problems"] and "digest" not in reps[-1]:
                break  # it did not run to the end: another try would fail the same way
            elapsed = time.monotonic() - began
            per_rep = statistics.median(r["wall_s"] for r in reps)
            need_traced = args.trace and not any(r["traced"] for r in reps)
            if elapsed + per_rep > args.seconds and not need_traced:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after = steal_s()

    digests = sorted({r["digest"] for r in reps if "digest" in r})
    first = reps[0].get("digest")
    for r in reps:
        if "digest" in r and r["digest"] != first:
            r["problems"].append(f"repetition {r['index']}: digest {r['digest']} != {first}")
    failed = [r for r in reps if r["problems"]]
    ok = [r for r in reps if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    metrics = {}
    if args.trace and plain and traced:
        for name, unit in PER_LAYER_UNITS.items():
            if name != "trace.overhead_frac":
                metrics[name] = {"value": _median(traced, name, "layers"), "unit": unit}
        overhead = _median(traced, "run_s") / _median(plain, "run_s") - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": PER_LAYER_UNITS["trace.overhead_frac"]}
    elif not args.trace and plain:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": _median(plain, name), "unit": unit}

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digests[0] if len(digests) == 1 else digests,
        "sim_steps": w.sim_steps,
        "provenance": {
            "git_commit": git_commit(),
            "versions": ok[0]["versions"] if ok else None,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "steal_s": {"before": steal_before, "after": steal_after},
            "thread_env": {v: "1" for v in THREAD_VARS},
        },
        "repetitions": [{k: v for k, v in r.items() if k != "versions"} for r in reps],
    }
    summary = {"correct": not failed and bool(metrics), "attempted": len(reps), "failed": len(failed),
               "metrics": metrics}
    with open(os.path.join(out_dir, f"{w.name}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "summary": summary}, fh, indent=1)
    for r in failed:
        print("\n".join(r["problems"]), file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
