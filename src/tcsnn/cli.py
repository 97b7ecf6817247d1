"""Batch experiment runner.

Subcommands::

    tcsnn run --config exp.cfg [--workers N] [--out DIR]
    tcsnn raster --config exp.cfg --example K --gamma G [--out DIR]
    tcsnn gen-dataset --classes K --channels N --steps T --seed S --out FILE

``run`` builds, trains and evaluates one network per compression ratio and
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

from .config import ConfigError, ExperimentConfig, load_experiment_config
from .learning import split_dataset, train_readout
from .metrics import AtelInputs, RunReport, atel, energy_estimate, write_raster_csv, write_report_json
from .network import build_lsm, simulate
from .spike import save_event_file, synthetic_task

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


def _run_single(config: ExperimentConfig, gamma: int) -> RunReport:
    """Train and evaluate one fixed-ratio build. Pure in (config, gamma)."""
    dataset = config.make_dataset()
    net = build_lsm(config.make_lsm_config(dataset, gamma))
    train_idx, test_idx = split_dataset(dataset, config.train_fraction, config.seed)
    report = train_readout(net, dataset, (train_idx, test_idx), config.learning, gamma, seed=config.seed)

    energy = 0.0
    counters: dict = {}
    timesteps = -(-dataset.length_steps // gamma)
    for i in test_idx:
        trains, _ = dataset.examples[i]
        trace = simulate(net, trains, mode="compressed", gamma=gamma)
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


def run_experiment(config: ExperimentConfig):
    """Run every ratio in the config and write reports and a summary table.

    Returns the list of RunReports ordered by ratio. When resource counts
    for a ratio and the baseline (gamma=1) are configured, the normalized
    ATEL column is filled from this experiment's accuracy/runtime/energy.
    """
    gammas = list(config.gammas)
    if config.workers > 1 and len(gammas) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {pool.submit(_run_single, config, g): g for g in gammas}
            reports = [f.result() for f in futures]
    else:
        reports = [_run_single(config, g) for g in gammas]
    reports.sort(key=lambda r: r.gamma)

    baseline = next((r for r in reports if r.gamma == 1), None)
    for rep in reports:
        if baseline is not None and rep.energy > 0:
            rep.energy_reduction = baseline.energy / rep.energy
        if baseline is not None and rep.gamma in config.resources and 1 in config.resources:
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
    """Write baseline and compressed reservoir raster CSVs for one example."""
    dataset = config.make_dataset()
    if not 0 <= example_index < len(dataset):
        raise ConfigError(f"example index {example_index} out of range [0, {len(dataset)})")
    if not 1 <= gamma <= config.max_gamma:
        raise ConfigError(f"gamma {gamma} outside [1, {config.max_gamma}]")
    net = build_lsm(config.make_lsm_config(dataset, gamma))
    trains, _ = dataset.examples[example_index]
    base = simulate(net, trains, mode="baseline")
    comp = simulate(net, trains, mode="compressed", gamma=gamma)
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
            dataset = synthetic_task(
                num_classes=args.classes,
                num_channels=args.channels,
                length_steps=args.steps,
                jitter_steps=args.jitter,
                examples_per_class=args.examples_per_class,
                seed=args.seed,
            )
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
