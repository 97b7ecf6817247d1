"""Output checks for one `tcsnn run` and the digest of its simulated results.

The energy check recomputes each report's energy from its own counters with
the energy model's formula at the default coefficients, written out here
rather than imported, so that a change to the model in tcsnn shows as a
mismatch.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os

from workloads import CLASSES, RESERVOIR, STEPS

SUMMARY_COLUMNS = ["ratio", "model", "accuracy", "timesteps", "speedup", "energy",
                   "energy_reduction", "normalized_atel"]
COUNTER_KEYS = {"synaptic_ops", "synaptic_ops_input", "synaptic_ops_reservoir",
                "neuron_updates", "spike_events", "saturations"}
E_SYNAPTIC_OP, E_NEURON_UPDATE, E_SPIKE = 1.0, 1.0, 0.5


def digest(out_dir: str) -> str:
    """SHA-256 over the names and bytes of every run_g*.json and summary.csv."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "run_g*.json"))) + [os.path.join(out_dir, "summary.csv")]:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def check_outputs(out_dir: str, workload, seed: int) -> list:
    """Problems found in one run's outputs; an empty list means they pass."""
    problems = []
    steps, num_neurons = STEPS, RESERVOIR + CLASSES  # the readout has one neuron per class
    n_test = workload.split[1]
    for g in workload.gammas:
        path = os.path.join(out_dir, f"run_g{g}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        want_t = math.ceil(steps / g)
        if rep.get("timestep_count") != want_t:
            problems.append(f"{path}: timestep_count {rep.get('timestep_count')} != ceil({steps}/{g}) = {want_t}")
        for key, want in (("gamma", g), ("seed", seed), ("model", workload.model),
                          ("input_length", steps), ("epochs", workload.epochs)):
            if rep.get(key) != want:
                problems.append(f"{path}: {key} {rep.get(key)!r} != {want!r}")
        counters = rep.get("counters", {})
        if set(counters) != COUNTER_KEYS or any(not isinstance(v, int) or v < 0 for v in counters.values()):
            problems.append(f"{path}: bad counters {counters!r}")
            continue
        energy = (
            num_neurons * want_t * n_test
            + E_SYNAPTIC_OP * counters["synaptic_ops"]
            + E_NEURON_UPDATE * counters["neuron_updates"]
            + E_SPIKE * counters["spike_events"]
        )
        if not math.isclose(rep.get("energy", -1.0), energy, rel_tol=1e-9):
            problems.append(f"{path}: energy {rep.get('energy')} != {energy} recomputed from counters")
        if not 0.0 <= rep.get("accuracy", -1.0) <= 100.0:
            problems.append(f"{path}: accuracy {rep.get('accuracy')} outside [0, 100]")

    path = os.path.join(out_dir, "summary.csv")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return problems + [f"{path}: {exc}"]
    if not rows or rows[0] != SUMMARY_COLUMNS:
        problems.append(f"{path}: header {rows[:1]!r}")
    else:
        timesteps = [r[3] if len(r) == len(SUMMARY_COLUMNS) else None for r in rows[1:]]
        if timesteps != [str(math.ceil(steps / g)) for g in sorted(workload.gammas)]:
            problems.append(f"{path}: timesteps column {timesteps}")
    return problems
