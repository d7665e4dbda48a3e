"""Configuration-driven command line: gen | train | eval | scan | fom.

One JSON config document drives every subcommand; `--seed` and `--solver`
override the corresponding config entries. Outputs are byte-identical across
repeated invocations with the same config and inputs. Exit codes: 0 success,
2 configuration error, 3 data error, 4 infeasible grid point(s).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Mapping, Sequence

from .dataset import (
    Dataset,
    GeneratorSpec,
    SampleSplit,
    apply_preselection,
    default_generator_spec,
    default_preselection,
    generate_synthetic,
    load_events,
    split_samples,
)
from .errors import ConfigError, DataError
from .evaluate import (
    FomParams,
    fom,
    fom_scan_dataset,
    overtraining_check,
    run_uncertainty,
    scores_by_process,
)
from .features import FeaturePipeline, fit_feature_pipeline, variable_set
from .ising import keep_count
from .solver import AnnealSchedule, ChainConfig
from .zoom import TrainedModel, ZoomConfig, run_qamlz

#: grid points whose post-prune coupler count exceeds this have no hardware
#: embedding; mirrors the 5600-coupler graph of the emulated annealer
DEFAULT_COUPLER_BUDGET = 5600

SCAN_HEADER = ("delta", "offset_range", "cutoff_pct", "fixing",
               "mean_fom", "std_fom", "status")
FOM_CURVE_HEADER = ("cut", "fom", "s_yield", "b_yield",
                    "n_signal", "n_background", "valid")
FOM_TABLE_HEADER = ("s", "b", "f", "fom")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_config(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _generator_from_config(doc: Mapping) -> GeneratorSpec:
    if doc.get("preset") == "default" or "processes" not in doc:
        kwargs = {k: doc[k] for k in ("s_tot", "b_tot", "signal_fraction") if k in doc}
        return default_generator_spec(**kwargs)
    return GeneratorSpec.from_dict(doc)


def prepare_data(cfg: Mapping, seed: int) -> Dataset:
    data_cfg = cfg.get("data", {})
    if "csv" in data_cfg:
        schema = data_cfg.get("schema")
        if schema is None:
            head = Path(data_cfg["csv"])
            if not head.exists():
                raise DataError(f"event file not found: {head}")
            with head.open(encoding="utf-8") as fh:
                names = [c.strip() for c in fh.readline().strip().split(",")]
            schema = [c for c in names if c not in ("tag", "weight", "process")]
        data = load_events(data_cfg["csv"], schema)
    elif "generator" in data_cfg:
        spec = _generator_from_config(data_cfg["generator"])
        n_events = int(data_cfg.get("n_events", data_cfg["generator"].get("n_events", 0)))
        if n_events <= 0:
            raise ConfigError("data.n_events must be a positive integer")
        data = generate_synthetic(spec, n_events, seed)
    else:
        raise ConfigError("config needs data.csv or data.generator")
    if data_cfg.get("preselection", False):
        data = apply_preselection(data, default_preselection())
    return data


def prepare_split(cfg: Mapping, data: Dataset, seed: int) -> SampleSplit:
    data_cfg = cfg.get("data", {})
    return split_samples(
        data,
        seed=seed,
        qa_fraction=float(data_cfg.get("qa_fraction", 0.5)),
        assess_processes=data_cfg.get("assess_processes", ()),
    )


def prepare_pipeline(cfg: Mapping, train: Dataset) -> FeaturePipeline:
    variables, derived, weak_mode = variable_set(cfg.get("variables", "beta"))
    if "weak_mode" in cfg:
        weak_mode = cfg["weak_mode"]
    return fit_feature_pipeline(
        train,
        variables=variables,
        derived=derived,
        weak_mode=weak_mode,
        n_bins=int(cfg.get("n_bins", 50)),
        use_pca=bool(cfg.get("pca", False)),
    )


def _schedule_from_config(doc: Mapping) -> AnnealSchedule:
    kwargs = {}
    for key in ("n_reads", "sweeps", "t_hot", "t_cold", "seed"):
        if key in doc:
            kwargs[key] = doc[key]
    for key in ("n_g", "n_e", "d"):
        if key in doc:
            kwargs[key] = tuple(doc[key])
    return AnnealSchedule(**kwargs)


def _chain_from_config(doc: Mapping | None) -> ChainConfig | None:
    if doc is None:
        return None
    return ChainConfig(
        length=int(doc.get("length", 4)),
        strength=float(doc.get("strength", 1.0)),
        strength_schedule=None if doc.get("strength_schedule") is None
        else tuple(doc["strength_schedule"]),
    )


def zoom_config(cfg: Mapping, seed: int, solver: str | None = None) -> ZoomConfig:
    z = cfg.get("zoom", {})
    try:
        return ZoomConfig(
            iterations=int(z.get("iterations", 8)),
            base=float(z.get("base", 0.5)),
            delta=float(z.get("delta", 0.025)),
            offset_range=int(z.get("offset_range", 3)),
            p_flip=None if z.get("p_flip") is None else tuple(z["p_flip"]),
            q_flip=None if z.get("q_flip") is None else tuple(z["q_flip"]),
            schedule=_schedule_from_config(z.get("schedule", {})),
            cutoff_pct=float(z.get("cutoff_pct", 0.0)),
            fixing=bool(z.get("fixing", False)),
            solver=solver or z.get("solver", "sa"),
            chain=_chain_from_config(z.get("chain")),
            external_command=None if z.get("external_command") is None
            else tuple(z["external_command"]),
            lam=float(z.get("lambda", 0.0)),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad zoom config: {exc}") from exc


def fom_params(cfg: Mapping) -> FomParams:
    doc = cfg.get("fom", {})
    return FomParams(f=float(doc.get("f", 0.20)))


def _fom_options(cfg: Mapping) -> dict:
    doc = cfg.get("fom", {})
    return {
        "min_counts": int(doc.get("min_counts", 20)),
        "grid_points": int(doc.get("grid_points", 201)),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: Mapping, seed: int, out_dir: Path) -> int:
    data = prepare_data(cfg, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "events.csv"
    data.to_csv(path)
    sig = data.tags == 1
    print(f"wrote {path}: {len(data)} events "
          f"(signal yield {data.weights[sig].sum():.6g}, "
          f"background yield {data.weights[~sig].sum():.6g})")
    return 0


def _train_once(cfg: Mapping, seed: int, solver: str | None):
    data = prepare_data(cfg, seed)
    split = prepare_split(cfg, data, seed)
    pipeline = prepare_pipeline(cfg, split.train)
    zcfg = zoom_config(cfg, seed, solver)
    model = run_qamlz(split.train, split.test, pipeline, zcfg)
    return split, model


def cmd_train(cfg: Mapping, seed: int, out_dir: Path, solver: str | None) -> int:
    split, model = _train_once(cfg, seed, solver)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "model.json", model.to_dict())
    with (out_dir / "train_log.jsonl").open("w", encoding="utf-8") as fh:
        for rec in model.trajectory:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    final = model.trajectory[-1]
    print(f"wrote {out_dir / 'model.json'}: {model.n_spins} spins, "
          f"final train distance {final.train_distance:.6g}, "
          f"test distance {final.test_distance:.6g}")
    return 0


def cmd_eval(cfg: Mapping, seed: int, out_dir: Path) -> int:
    model_path = Path(cfg.get("model", out_dir / "model.json"))
    if not model_path.exists():
        raise DataError(f"model file not found: {model_path} (run `train` first?)")
    model = TrainedModel.from_dict(json.loads(model_path.read_text(encoding="utf-8")))
    data = prepare_data(cfg, seed)
    split = prepare_split(cfg, data, seed)
    params = fom_params(cfg)
    curve = fom_scan_dataset(model, split.assess, params, **_fom_options(cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "fom_curve.csv", FOM_CURVE_HEADER,
        ([r["cut"], r["fom"], r["s_yield"], r["b_yield"],
          r["n_signal"], r["n_background"], int(r["valid"])] for r in curve.rows()),
    )
    _write_json(out_dir / "eval_summary.json", {
        "best_cut": curve.best_cut,
        "best_fom": None if curve.no_valid_cut else curve.best_fom,
        "s_at_best": curve.s_at_best,
        "b_at_best": curve.b_at_best,
        "no_valid_cut": curve.no_valid_cut,
        "f": params.f,
    })
    report = overtraining_check(
        scores_by_process(model, split.train), scores_by_process(model, split.test)
    )
    _write_json(out_dir / "overtraining.json", {
        name: {"statistic": stat, "p_value": pval}
        for name, (stat, pval) in sorted(report.items())
    })
    if curve.no_valid_cut:
        print("no valid cut: every grid point fails the event-count floor")
    else:
        print(f"best fom {curve.best_fom:.6g} at cut {curve.best_cut:.6g} "
              f"(S={curve.s_at_best:.6g}, B={curve.b_at_best:.6g})")
    return 0


def _scan_point(args: tuple) -> tuple:
    """One grid point, executed possibly in a worker process."""
    (split, pipeline, cfg, seed, solver, point, n_runs, budget) = args
    delta, offset_range, cutoff_pct, fixing = point
    n_spins = pipeline.n_var * (2 * offset_range + 1)
    if keep_count(n_spins * (n_spins - 1) // 2, cutoff_pct) > budget:
        return (delta, offset_range, cutoff_pct, fixing, "", "", "no embedding")
    zcfg = dataclasses.replace(
        zoom_config(cfg, seed, solver),
        delta=delta, offset_range=offset_range, cutoff_pct=cutoff_pct, fixing=fixing,
    )
    report = run_uncertainty(
        zcfg, split, pipeline, n_runs=n_runs, params=fom_params(cfg),
        **_fom_options(cfg),
    )
    return (delta, offset_range, cutoff_pct, fixing, report.mean, report.std, "ok")


def cmd_scan(cfg: Mapping, seed: int, out_dir: Path, solver: str | None, jobs: int) -> int:
    scan_cfg = cfg.get("scan")
    if not scan_cfg:
        raise ConfigError("config needs a `scan` section with grid axes")
    zoom_defaults = cfg.get("zoom", {})
    axes = (
        [float(v) for v in scan_cfg.get("delta", [zoom_defaults.get("delta", 0.025)])],
        [int(v) for v in scan_cfg.get("offset_range", [zoom_defaults.get("offset_range", 3)])],
        [float(v) for v in scan_cfg.get("cutoff_pct", [zoom_defaults.get("cutoff_pct", 0.0)])],
        [bool(v) for v in scan_cfg.get("fixing", [zoom_defaults.get("fixing", False)])],
    )
    if any(len(a) == 0 for a in axes):
        raise ConfigError("scan grid axes must be non-empty")
    n_runs = int(scan_cfg.get("n_runs", 2))
    budget = int(scan_cfg.get("coupler_budget", DEFAULT_COUPLER_BUDGET))

    data = prepare_data(cfg, seed)
    split = prepare_split(cfg, data, seed)
    pipeline = prepare_pipeline(cfg, split.train)
    points = list(itertools.product(*axes))
    tasks = [(split, pipeline, cfg, seed, solver, p, n_runs, budget) for p in points]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_point, tasks))
    else:
        rows = [_scan_point(task) for task in tasks]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "scan.csv", SCAN_HEADER, rows)
    infeasible = sum(1 for r in rows if r[-1] == "no embedding")
    print(f"wrote {out_dir / 'scan.csv'}: {len(rows)} grid points, {infeasible} infeasible")
    return 4 if infeasible else 0


def cmd_fom(cfg: Mapping, out_dir: Path) -> int:
    doc = cfg.get("fom_curve")
    if not doc:
        raise ConfigError("config needs a `fom_curve` section with s, b and f lists")
    s_values = [float(v) for v in doc.get("s", [])]
    b_values = [float(v) for v in doc.get("b", [])]
    f_values = [float(v) for v in doc.get("f", [0.20])]
    if not s_values or not b_values:
        raise ConfigError("fom_curve.s and fom_curve.b must be non-empty")
    rows = [
        (s, b, f, fom(s, b, f))
        for s, b, f in itertools.product(s_values, b_values, f_values)
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "fom.csv", FOM_TABLE_HEADER, rows)
    print(f"wrote {out_dir / 'fom.csv'}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamlz",
        description="Zoomed annealing classifier: generate, train, evaluate, scan.",
    )
    parser.add_argument("command", choices=("gen", "train", "eval", "scan", "fom"))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=_u64, default=None, help="override config seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel grid points (scan)")
    parser.add_argument("--solver", choices=("exact", "sa", "chain"), default=None,
                        help="override the configured solver backend")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        out_dir = Path(cfg.get("out_dir", "out"))
        if args.command == "gen":
            return cmd_gen(cfg, seed, out_dir)
        if args.command == "train":
            return cmd_train(cfg, seed, out_dir, args.solver)
        if args.command == "eval":
            return cmd_eval(cfg, seed, out_dir)
        if args.command == "scan":
            return cmd_scan(cfg, seed, out_dir, args.solver, max(1, args.jobs))
        return cmd_fom(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
