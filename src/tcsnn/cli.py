"""Batch experiment runner.

Subcommands::

    tcsnn run --config exp.cfg [--workers N] [--out DIR]
    tcsnn raster --config exp.cfg --example K --gamma G [--out DIR]
    tcsnn gen-dataset --classes K --channels N --steps T --seed S --out FILE

``run`` trains and evaluates the configured network at each compression
ratio (a fresh build per ratio, so every ratio trains its own readout) and
writes a JSON report per run plus a combined CSV summary. All outputs are a
pure function of the config file, so reruns are byte-identical. Exit codes:
0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, SyntheticSpec, load_experiment_config
from .learning import reservoir_passes, split_dataset, train_readout
from .metrics import AtelInputs, RunReport, atel, energy_estimate, write_raster_csv, write_report_json
from .network import build_lsm, simulate
from .spike import SpikeDataset, save_event_file

__all__ = ["run_experiment", "emit_raster", "main"]

SUMMARY_COLUMNS = (
    "ratio",
    "model",
    "accuracy",
    "timesteps",
    "speedup",
    "energy",
    "energy_reduction",
    "normalized_atel",
)


def _run_single(config: ExperimentConfig, gamma: int, dataset: SpikeDataset) -> RunReport:
    """Train and evaluate the experiment's network at one ratio.

    Pure in (config, gamma, dataset); ``dataset`` is ``config.make_dataset()``.
    """
    net = build_lsm(config.make_lsm_config(dataset))
    train_idx, test_idx = split_dataset(dataset, config.train_fraction, config.seed)
    # every example's reservoir runs once, in one batch: its pass serves each
    # training epoch, and the trained readout runs once over the test passes
    # for both the evaluation and the energy count below
    passes = reservoir_passes(net, dataset, [*train_idx, *test_idx] if config.learning.epochs else test_idx, gamma)
    report = train_readout(net, dataset, (train_idx, test_idx), config.learning, gamma, passes=passes)

    energy = 0.0
    counters: dict = {}
    timesteps = -(-dataset.length_steps // gamma)
    for i, run in zip(test_idx, report.test_readouts):
        trace = simulate(net, dataset.row(i), gamma=gamma, reservoir=passes[int(i)], readout=run)
        energy += energy_estimate(trace, config.energy)
        for key, value in trace.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value

    return RunReport(
        gamma=gamma,
        model=config.lsm.model,
        seed=config.seed,
        accuracy=report.test_accuracy,
        timestep_count=timesteps,
        input_length=dataset.length_steps,
        speedup=dataset.length_steps / timesteps,
        counters=counters,
        energy=energy,
        epochs=config.learning.epochs,
        no_spike_examples=report.no_spike_examples,
    )


_worker_dataset: SpikeDataset | None = None  # the experiment's dataset, in a pool worker


def _init_worker(dataset: SpikeDataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_in_worker(config: ExperimentConfig, gamma: int) -> RunReport:
    return _run_single(config, gamma, _worker_dataset)


def run_experiment(config: ExperimentConfig):
    """Run every ratio in the config and write reports and a summary table.

    Returns the list of RunReports ordered by ratio. When resource counts
    for a ratio and the baseline (gamma=1) are configured, the normalized
    ATEL column is filled from this experiment's accuracy/runtime/energy,
    unless the baseline scored 100%: that column then stays empty.
    """
    gammas = list(config.gammas)
    dataset = config.make_dataset()  # the same for every ratio
    workers = min(config.workers, len(gammas))
    if workers > 1:
        # each worker gets the dataset once, when it starts (inherited, when
        # forked); a task carries only its config and ratio
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(dataset,)
        ) as pool:
            futures = [pool.submit(_run_in_worker, config, g) for g in gammas]
            reports = [f.result() for f in futures]
    else:
        reports = [_run_single(config, g, dataset) for g in gammas]
    reports.sort(key=lambda r: r.gamma)

    baseline = next((r for r in reports if r.gamma == 1), None)
    for rep in reports:
        if baseline is not None and rep.energy > 0:
            rep.energy_reduction = baseline.energy / rep.energy
        if baseline is not None and baseline.accuracy < 100.0 and rep.gamma in config.resources and 1 in config.resources:
            lut_d, ff_d = config.resources[rep.gamma]
            lut_b, ff_b = config.resources[1]
            rep.atel_percent = atel(
                AtelInputs(lut_d, ff_d, rep.timestep_count, rep.energy, rep.accuracy),
                AtelInputs(lut_b, ff_b, baseline.timestep_count, baseline.energy, baseline.accuracy),
            )

    os.makedirs(config.out_dir, exist_ok=True)
    for rep in reports:
        write_report_json(rep, os.path.join(config.out_dir, f"run_g{rep.gamma}.json"))
    _write_summary(reports, os.path.join(config.out_dir, "summary.csv"))
    return reports


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_summary(reports, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for rep in reports:
            label = "baseline" if rep.gamma == 1 else f"{rep.gamma}:1"
            row = (
                label,
                rep.model,
                _fmt_cell(rep.accuracy),
                str(rep.timestep_count),
                _fmt_cell(rep.speedup),
                _fmt_cell(rep.energy),
                _fmt_cell(rep.energy_reduction),
                _fmt_cell(rep.atel_percent),
            )
            fh.write(",".join(row) + "\n")


def emit_raster(config: ExperimentConfig, example_index: int, gamma: int):
    """Write reservoir raster CSVs for one example at gamma 1 (the baseline) and ``gamma``."""
    dataset = config.make_dataset()
    if not 0 <= example_index < len(dataset):
        raise ConfigError(f"example index {example_index} out of range [0, {len(dataset)})")
    if not 1 <= gamma <= config.max_gamma:
        raise ConfigError(f"gamma {gamma} outside [1, {config.max_gamma}]")
    net = build_lsm(config.make_lsm_config(dataset))
    row = dataset.row(example_index)
    base = simulate(net, row, gamma=1)
    comp = simulate(net, row, gamma=gamma)
    os.makedirs(config.out_dir, exist_ok=True)
    base_path = os.path.join(config.out_dir, f"raster_ex{example_index}_baseline.csv")
    comp_path = os.path.join(config.out_dir, f"raster_ex{example_index}_g{gamma}.csv")
    write_raster_csv(base, base_path)
    write_raster_csv(comp, comp_path)
    return base_path, comp_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcsnn", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_raster = sub.add_parser("raster", help="export baseline/compressed raster CSVs")
    p_raster.add_argument("--config", required=True)
    p_raster.add_argument("--example", type=int, required=True)
    p_raster.add_argument("--gamma", type=int, required=True)
    p_raster.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen-dataset", help="generate a synthetic event-file dataset")
    p_gen.add_argument("--classes", type=int, required=True)
    p_gen.add_argument("--channels", type=int, required=True)
    p_gen.add_argument("--steps", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--jitter", type=int, default=4)
    p_gen.add_argument("--examples-per-class", type=int, default=20)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_experiment_config(args.config)
            overrides = {}
            if args.workers is not None:
                overrides["workers"] = args.workers
            if args.out is not None:
                overrides["out_dir"] = args.out
            if overrides:
                config = replace(config, **overrides)
            reports = run_experiment(config)
            print(f"wrote {len(reports)} run reports and summary.csv to {config.out_dir}")
        elif args.command == "raster":
            config = load_experiment_config(args.config)
            if args.out is not None:
                config = replace(config, out_dir=args.out)
            base_path, comp_path = emit_raster(config, args.example, args.gamma)
            print(f"wrote {base_path} and {comp_path}")
        elif args.command == "gen-dataset":
            try:
                spec = SyntheticSpec(
                    num_classes=args.classes,
                    num_channels=args.channels,
                    length_steps=args.steps,
                    jitter_steps=args.jitter,
                    examples_per_class=args.examples_per_class,
                )
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            dataset = ExperimentConfig(seed=args.seed, synthetic=spec).make_dataset()
            save_event_file(dataset, args.out)
            print(f"wrote {len(dataset)} examples to {args.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
