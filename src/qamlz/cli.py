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

import numpy as np

from ._codec import from_json
from .dataset import (
    Dataset,
    GeneratorSpec,
    SampleSplit,
    apply_preselection,
    default_generator_spec,
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
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n",
                    encoding="utf-8")


def load_config(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Config -> objects. Every value is read by `from_json`: a section that is a
# dataclass by its fields, any other by a {key: kind} table. An absent key is
# not passed on, so its default lives only with its owner.
# ---------------------------------------------------------------------------


_CONFIG = {"seed": int, "out_dir": str, "model": str, "variables": object, "weak_mode": str,
           "n_bins": int, "pca": bool, "data": object, "zoom": object, "fom": object,
           "scan": object, "fom_curve": object}
_DATA = {"csv": str, "schema": tuple[str, ...] | None, "generator": object, "n_events": int,
         "preselection": bool, "qa_fraction": float, "assess_processes": tuple[str, ...]}
_PRESET = {"preset": str, "s_tot": float, "b_tot": float, "signal_fraction": float}
_FOM = {"f": float, "min_counts": int, "grid_points": int}
_SCAN = {"delta": tuple[float, ...], "offset_range": tuple[int, ...],
         "cutoff_pct": tuple[float, ...], "fixing": tuple[bool, ...],
         "n_runs": int, "coupler_budget": int}
_FOM_CURVE = dict.fromkeys("sbf", tuple[float, ...])

#: config keys whose parameter has another name
_PARAM = {"pca": "use_pca"}


def _section(cfg: Mapping, key: str, table: Mapping) -> dict:
    """The `key` section of the config read by `table`; {} when absent."""
    return from_json(table, cfg.get(key, {}), key)


def _pick(opts: Mapping, *keys: str) -> dict:
    """{parameter: value} for each of `keys` present in `opts`."""
    return {_PARAM.get(k, k): opts[k] for k in keys if k in opts}


def _generator_from_config(doc) -> GeneratorSpec:
    """The default spec for a `preset` of "default", or the inline spec of an
    object with a `processes` key; any other generator is a `ConfigError`."""
    where = "data.generator"
    if isinstance(doc, Mapping) and doc.get("preset") == "default":
        return default_generator_spec(**_pick(from_json(_PRESET, doc, where),
                                              "s_tot", "b_tot", "signal_fraction"))
    if not isinstance(doc, Mapping) or "preset" in doc or "processes" not in doc:
        raise ConfigError(f'{where} must be {{"preset": "default"}} or an inline spec '
                          f'with a "processes" key, got {json.dumps(doc)}')
    try:
        return from_json(GeneratorSpec, doc, where)
    except ConfigError as exc:
        raise ConfigError(f"bad generator spec: {exc}") from exc


def prepare_data(cfg: Mapping, seed: int) -> Dataset:
    opts = _section(cfg, "data", _DATA)
    if "csv" in opts:
        data = load_events(opts["csv"], opts.get("schema"))
    elif "generator" in opts:
        spec = _generator_from_config(opts["generator"])
        if opts.get("n_events", 0) <= 0:
            raise ConfigError("data.n_events must be a positive integer")
        data = generate_synthetic(spec, opts["n_events"], seed)
    else:
        raise ConfigError("config needs data.csv or data.generator")
    if opts.get("preselection"):
        data = apply_preselection(data)
    return data


def prepare_split(cfg: Mapping, data: Dataset, seed: int) -> SampleSplit:
    opts = _section(cfg, "data", _DATA)
    return split_samples(data, seed=seed, **_pick(opts, "qa_fraction", "assess_processes"))


def _variables(top: Mapping) -> tuple:
    """`variable_set` of the config's `variables` selector."""
    selector = top.get("variables", "beta")
    if not isinstance(selector, str):
        selector = from_json(tuple[str, ...], selector, "variables")
    return variable_set(selector)


def prepare_pipeline(cfg: Mapping, train: Dataset) -> FeaturePipeline:
    top = from_json(_CONFIG, cfg, "")
    variables, derived, weak_mode = _variables(top)
    return fit_feature_pipeline(train, variables=variables, derived=derived,
                                **{"weak_mode": weak_mode,
                                   **_pick(top, "weak_mode", "n_bins", "pca")})


def zoom_config(cfg: Mapping, seed: int, solver: str | None = None) -> ZoomConfig:
    """The `zoom` section; the run's seed is the config's top-level `seed`."""
    doc = cfg.get("zoom", {})
    if solver and isinstance(doc, Mapping):
        doc = {**doc, "solver": solver}
    return from_json(ZoomConfig, doc, "zoom", seed=seed)


def fom_settings(cfg: Mapping) -> dict:
    """FomParams and the cut-scan options, as keyword arguments of
    `fom_scan_dataset` and `run_uncertainty`."""
    opts = _section(cfg, "fom", _FOM)
    if opts.get("grid_points", 2) < 2:
        raise ConfigError(f"fom.grid_points must be >= 2, got {opts['grid_points']}")
    if opts.get("min_counts", 0) < 0:
        raise ConfigError(f"fom.min_counts must be >= 0, got {opts['min_counts']}")
    return {"params": FomParams(**_pick(opts, "f")), **_pick(opts, "min_counts", "grid_points")}


def check_config(cfg: Mapping, seed: int, solver: str | None) -> None:
    """Read every config section once, so an unknown key or a bad value is a
    `ConfigError` whichever sections the command goes on to use."""
    data = _section(cfg, "data", _DATA)
    if "generator" in data:
        _generator_from_config(data["generator"])
    zoom_config(cfg, seed, solver)
    fom_settings(cfg)
    _section(cfg, "scan", _SCAN)
    _section(cfg, "fom_curve", _FOM_CURVE)
    _variables(from_json(_CONFIG, cfg, ""))


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
    _write_json(out_dir / "model.json", dataclasses.asdict(model))
    with (out_dir / "train_log.jsonl").open("w", encoding="utf-8") as fh:
        for rec in model.trajectory:
            fh.write(json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n")
    final = model.trajectory[-1]
    print(f"wrote {out_dir / 'model.json'}: {model.n_spins} spins, "
          f"final train distance {final.train_distance:.6g}, "
          f"test distance {final.test_distance:.6g}")
    return 0


def cmd_eval(cfg: Mapping, seed: int, out_dir: Path) -> int:
    settings = fom_settings(cfg)
    model_path = Path(from_json(_CONFIG, cfg, "").get("model", out_dir / "model.json"))
    if not model_path.exists():
        raise DataError(f"model file not found: {model_path} (run `train` first?)")
    try:
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        model = from_json(TrainedModel, doc, "model")
    except (OSError, ValueError, ConfigError) as exc:
        raise DataError(f"malformed model file {model_path}: {exc}") from exc
    data = prepare_data(cfg, seed)
    split = prepare_split(cfg, data, seed)
    curve = fom_scan_dataset(model, split.assess, **settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = (curve.cuts, curve.fom_values, curve.s_yields, curve.b_yields,
               curve.n_signal, curve.n_background, curve.valid.astype(int))
    _write_csv(out_dir / "fom_curve.csv", FOM_CURVE_HEADER,
               zip(*(c.tolist() for c in columns)))
    _write_json(out_dir / "eval_summary.json", {
        "best_cut": curve.best_cut,
        "best_fom": None if curve.no_valid_cut else curve.best_fom,
        "s_at_best": curve.s_at_best,
        "b_at_best": curve.b_at_best,
        "no_valid_cut": curve.no_valid_cut,
        "f": settings["params"].f,
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
    (split, pipeline, zcfg, fom_kwargs, point, n_runs, budget) = args
    delta, offset_range, cutoff_pct, fixing = point
    n_spins = pipeline.n_var * (2 * offset_range + 1)
    if keep_count(n_spins * (n_spins - 1) // 2, cutoff_pct) > budget:
        return (delta, offset_range, cutoff_pct, fixing, "", "", "no embedding")
    zcfg = dataclasses.replace(
        zcfg, delta=delta, offset_range=offset_range, cutoff_pct=cutoff_pct, fixing=fixing,
    )
    report = run_uncertainty(zcfg, split, pipeline, n_runs=n_runs, **fom_kwargs)
    return (delta, offset_range, cutoff_pct, fixing, report.mean, report.std, "ok")


def cmd_scan(cfg: Mapping, seed: int, out_dir: Path, solver: str | None, jobs: int) -> int:
    opts = _section(cfg, "scan", _SCAN)
    if not opts:
        raise ConfigError("config needs a `scan` section with grid axes")
    zcfg = zoom_config(cfg, seed, solver)
    axes = [opts.get(name, (getattr(zcfg, name),))
            for name in ("delta", "offset_range", "cutoff_pct", "fixing")]
    if any(len(a) == 0 for a in axes):
        raise ConfigError("scan grid axes must be non-empty")
    n_runs = opts.get("n_runs", 2)
    budget = opts.get("coupler_budget", DEFAULT_COUPLER_BUDGET)
    fom_kwargs = fom_settings(cfg)

    data = prepare_data(cfg, seed)
    split = prepare_split(cfg, data, seed)
    pipeline = prepare_pipeline(cfg, split.train)
    points = list(itertools.product(*axes))
    tasks = [(split, pipeline, zcfg, fom_kwargs, p, n_runs, budget) for p in points]
    # the pool starts all its workers at once, so it is no larger than the grid
    jobs = min(jobs, len(tasks))
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
    opts = _section(cfg, "fom_curve", _FOM_CURVE)
    if not opts:
        raise ConfigError("config needs a `fom_curve` section with s, b and f lists")
    s_values, b_values = opts.get("s", ()), opts.get("b", ())
    f_values = opts.get("f", (FomParams().f,))
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
        top = from_json(_CONFIG, cfg, "")
        seed = args.seed if args.seed is not None else top.get("seed", 0)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        out_dir = Path(top.get("out_dir", "out"))
        check_config(cfg, seed, args.solver)
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
