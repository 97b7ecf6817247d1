"""Span tracer for one traced `tcsnn run`, installed from outside the package.

Each public function is wrapped at the module binding its caller looks it up
in (``tcsnn.network.saturate`` is what the engine calls, so that is what gets
wrapped). Coarse calls (the experiment, each ratio, simulations, dataset
loads, writes) are kept as spans: name, start, end, parent, self time and a
few attributes. Hot leaf calls (saturate, the synapse and neuron steps,
compression, dense conversion, the readout learner's per-step hook) run up
to millions of times per experiment, so they
are folded into per-binding totals at the moment they end; their time still
counts against the enclosing span's self time. Self time is a span's
duration minus the time of the wrapped calls inside it.

Fork-started pool workers inherit the wrappers. A worker drops what it
inherited right after the fork and writes its own record to the dump
directory after each ratio it runs; the parent gathers those files.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time

# (module, attribute, metric layer); "ExperimentConfig.make_dataset" is a
# class attribute. STEP_FUNCTIONS entries are added per model at install.
SPAN_BINDINGS = (
    ("tcsnn.cli", "load_experiment_config", "config.load"),
    ("tcsnn.cli", "run_experiment", "cli.run_experiment"),
    ("tcsnn.cli", "_run_single", "cli.run_single"),
    ("tcsnn.cli", "build_lsm", "network.build_lsm"),
    ("tcsnn.cli", "train_readout", "learning.train_readout"),
    ("tcsnn.cli", "simulate", "network.simulate"),
    ("tcsnn.cli", "energy_estimate", "metrics.energy_estimate"),
    ("tcsnn.cli", "write_report_json", "metrics.write"),
    ("tcsnn.cli", "_write_summary", "metrics.write"),
    ("tcsnn.config", "ExperimentConfig.make_dataset", "spike.make_dataset"),
    ("tcsnn.learning", "simulate", "network.simulate"),
    ("tcsnn.learning", "evaluate", "learning.evaluate"),
)
LEAF_BINDINGS = (
    ("tcsnn.network", "saturate", "fixedpoint.saturate"),
    ("tcsnn.neuron", "saturate", "fixedpoint.saturate"),
    ("tcsnn.network", "synapse_step", "neuron.synapse_step"),
    ("tcsnn.network", "compress_train", "compress.compress_train"),
    ("tcsnn.network", "trains_to_dense", "spike.trains_to_dense"),
    ("tcsnn.learning", "_ReadoutLearner.on_step", "learning.learner"),
)
LEARNER_HOOK = "tcsnn.learning._ReadoutLearner.on_step"


class BindingError(RuntimeError):
    """A binding the benchmark wraps is missing or never ran."""


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not hasattr(owner, name):
        raise BindingError(f"{module_name}.{attr}: binding not found")
    return owner, name


def _simulate_attrs(label):
    def attrs(args, kwargs, result):
        role = "energy" if label.startswith("tcsnn.cli.") else ("learn" if kwargs.get("_learner") is not None else "eval")
        out = {"role": role, "gamma": kwargs.get("gamma"), "steps": result.timestep_count,
               "example": id(args[1] if len(args) > 1 else kwargs.get("example"))}
        if role == "energy":
            out["reservoir_events"] = int(result.reservoir_events.shape[0])
        return out
    return attrs


def _run_single_attrs(args, kwargs, result):
    return {"gamma": args[1] if len(args) > 1 else kwargs.get("gamma")}


class Tracer:
    """Wraps tcsnn's bindings in this process and records their spans."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.root_pid = os.getpid()
        self.stack = [0]  # time of wrapped callees per open call, innermost last
        self.open = []  # indices of open spans
        self.spans = []  # [binding, start_ns, end_ns, parent, self_ns, attrs]
        self.totals = {}  # binding -> [calls, total_ns, self_ns]
        self.bindings = {}  # binding label -> metric layer
        self.may_idle = set()  # bindings this experiment has no reason to call
        self._dumps = 0
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        del self.stack[1:]
        self.stack[0] = 0
        self.open.clear()
        self.spans.clear()
        for agg in self.totals.values():
            agg[:] = [0, 0, 0]

    def install(self, model: str, epochs: int) -> None:
        """Wrap every binding; raise BindingError naming the first one missing."""
        for module_name, attr, layer in SPAN_BINDINGS:
            owner, name = _resolve(module_name, attr)
            label = f"{module_name}.{attr}"
            attrs = None
            if name == "simulate":
                attrs = _simulate_attrs(label)
            elif name == "_run_single":
                attrs = _run_single_attrs
            setattr(owner, name, self._span(label, layer, getattr(owner, name), attrs, dump=name == "_run_single"))
        for module_name, attr, layer in LEAF_BINDINGS:
            owner, name = _resolve(module_name, attr)
            setattr(owner, name, self._leaf(f"{module_name}.{attr}", layer, getattr(owner, name)))
        owner, name = _resolve("tcsnn.neuron", "STEP_FUNCTIONS")
        table = getattr(owner, name)
        if model not in table:
            raise BindingError(f"tcsnn.neuron.STEP_FUNCTIONS[{model!r}]: binding not found")
        for key, fn in list(table.items()):
            label = f"tcsnn.neuron.STEP_FUNCTIONS[{key!r}]"
            table[key] = self._leaf(label, "neuron.step", fn)
            if key != model:
                self.may_idle.add(label)
        if epochs == 0:
            self.may_idle.add(LEARNER_HOOK)

    def _leaf(self, label, layer, fn):
        self.bindings[label] = layer
        agg = self.totals[label] = [0, 0, 0]
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child

        return wrapper

    def _span(self, label, layer, fn, attrs_fn, dump):
        self.bindings[label] = layer
        agg = self.totals[label] = [0, 0, 0]
        stack, open_, spans = self.stack, self.open, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, 0, 0, open_[-1] if open_ else None, 0, None]
            open_.append(len(spans))
            spans.append(rec)
            stack.append(0)
            rec[1] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                open_.pop()
                stack[-1] += t1 - t0
                rec[2] = t1
                rec[4] = t1 - t0 - child
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += rec[4]
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, kwargs, result)
            if dump and os.getpid() != self.root_pid:
                self._dump_worker()
            return result

        return wrapper

    def record(self) -> dict:
        return {"pid": os.getpid(), "spans": [list(s) for s in self.spans],
                "totals": {k: list(v) for k, v in self.totals.items()}}

    def _dump_worker(self):
        self._dumps += 1
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}-{self._dumps}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)
        self._forget()

    def gather(self) -> list:
        """This process's record followed by every worker record dumped so far."""
        records = [self.record()]
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        return records

    def self_check(self, records: list, gammas, workers: int) -> None:
        """Every binding must have run; with a pool, every ratio must come back from a worker."""
        calls = {label: 0 for label in self.bindings}
        for rec in records:
            for label, (n, _, _) in rec["totals"].items():
                calls[label] += n
        for label, n in calls.items():
            if n == 0 and label not in self.may_idle:
                raise BindingError(f"{label}: wrapped but never called")
        if workers > 1 and len(gammas) > 1:
            from_workers = {
                s[5]["gamma"] for rec in records if rec["pid"] != self.root_pid
                for s in rec["spans"] if s[0] == "tcsnn.cli._run_single"
            }
            if from_workers != set(gammas):
                raise BindingError(
                    f"tcsnn.cli._run_single: pool worker spans gathered for ratios {sorted(from_workers)}, "
                    f"expected {sorted(gammas)}"
                )


def layer_metrics(tracer: Tracer, records: list, counters: list, workers: int) -> tuple:
    """Per-layer metrics of one traced run: (named metrics, per-ratio breakdown).

    ``*_s`` is self time; ``*.us_per_call`` and ``*_ns_per_step`` include the
    wrapped callees. ``counters`` are the run reports' event counters, one per ratio.
    The learner hook is called once per learn-mode step, so its time per call
    is its cost per step.
    """
    calls, total, self_ns = {}, {}, {}
    for rec in records:
        for label, (n, t, s) in rec["totals"].items():
            layer = tracer.bindings[label]
            calls[layer] = calls.get(layer, 0) + n
            total[layer] = total.get(layer, 0) + t
            self_ns[layer] = self_ns.get(layer, 0) + s

    sims = [(rec["pid"], s) for rec in records for s in rec["spans"] if s[0].endswith(".simulate")]
    sim_ns, sim_steps, sim_calls = {}, {}, {}
    examples = set()
    res_events = res_steps = 0
    for pid, (_, start, end, _, _, attrs) in sims:
        key = (attrs["role"], attrs["gamma"])
        sim_ns[key] = sim_ns.get(key, 0) + end - start
        sim_steps[key] = sim_steps.get(key, 0) + attrs["steps"]
        sim_calls[key] = sim_calls.get(key, 0) + 1
        examples.add((pid, attrs["gamma"], attrs["example"]))
        if attrs["role"] == "energy":
            res_events += attrs["reservoir_events"]
            res_steps += attrs["steps"]
    gammas = sorted({g for _, g in sim_ns})
    ns_per_step = {role: {g: sim_ns[(role, g)] / sim_steps[(role, g)] for g in gammas if (role, g) in sim_ns}
                   for role in ("learn", "eval", "energy")}
    frozen = {g: sum(sim_ns.get((r, g), 0) for r in ("eval", "energy"))
              / sum(sim_calls.get((r, g), 0) for r in ("eval", "energy")) for g in gammas}
    speedup = {g: frozen[1] / frozen[g] for g in gammas} if 1 in frozen else {}

    run_single = {}
    for rec in records:
        for label, start, end, _, _, attrs in rec["spans"]:
            if label == "tcsnn.cli._run_single":
                run_single[attrs["gamma"]] = (end - start) / 1e9
    run_ns = sum(e - s for rec in records for label, s, e, *_ in rec["spans"] if label == "tcsnn.cli.run_experiment")

    def per_call(layer):
        return total[layer] / calls[layer] / 1e3

    counts = {key: sum(c[key] for c in counters) for key in ("synaptic_ops", "spike_events", "saturations")}
    named = {
        "config.load_s": self_ns["config.load"] / 1e9,
        "spike.make_dataset_s": self_ns["spike.make_dataset"] / 1e9,
        "spike.make_dataset.calls": calls["spike.make_dataset"],
        "spike.trains_to_dense_s": self_ns["spike.trains_to_dense"] / 1e9,
        "compress.compress_train_s": self_ns["compress.compress_train"] / 1e9,
        "compress.compress_train.calls": calls["compress.compress_train"],
        "fixedpoint.saturate_s": self_ns["fixedpoint.saturate"] / 1e9,
        "fixedpoint.saturate.calls": calls["fixedpoint.saturate"],
        "fixedpoint.saturate.us_per_call": per_call("fixedpoint.saturate"),
        "neuron.synapse_step_s": self_ns["neuron.synapse_step"] / 1e9,
        "neuron.synapse_step.us_per_call": per_call("neuron.synapse_step"),
        "neuron.step_s": self_ns["neuron.step"] / 1e9,
        "neuron.step.us_per_call": per_call("neuron.step"),
        "network.build_lsm_s": self_ns["network.build_lsm"] / 1e9,
        "network.simulate.self_s": self_ns["network.simulate"] / 1e9,
        "network.simulate.calls": calls["network.simulate"],
        "network.simulate.eval_ns_per_step.g1": ns_per_step["eval"][1],
        "network.simulate.energy_ns_per_step.g1": ns_per_step["energy"][1],
        "network.reservoir_useful_frac": len(examples) / len(sims),
        "network.reservoir_events_per_step": res_events / res_steps,
        "network.synaptic_ops": counts["synaptic_ops"],
        "network.spike_events": counts["spike_events"],
        "fixedpoint.saturations": counts["saturations"],
        "network.host_speedup.gmax": speedup[max(gammas)],
        "learning.learner_s": self_ns["learning.learner"] / 1e9,
        "learning.evaluate_s": self_ns["learning.evaluate"] / 1e9,
        "metrics.energy_estimate_s": self_ns["metrics.energy_estimate"] / 1e9,
        "metrics.write_s": self_ns["metrics.write"] / 1e9,
        "cli.run_single_s.g1": run_single[1],
        "cli.worker_busy_frac": sum(run_single.values()) / (workers * run_ns / 1e9),
    }
    by_gamma = {f"network.simulate.{role}_ns_per_step": v for role, v in ns_per_step.items()}
    by_gamma.update({"network.host_speedup": speedup, "cli.run_single_s": run_single})
    detail = {f"{prefix}.g{g}": v for prefix, values in by_gamma.items() for g, v in sorted(values.items())}
    if calls["learning.learner"]:
        detail["learning.learner.us_per_call"] = per_call("learning.learner")
    return named, detail
