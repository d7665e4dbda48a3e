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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._codec import did_you_mean, from_json, read_json, shown
from .dataset import (
    PROCESSES,
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
    event_signs,
    fom,
    fom_scan_dataset,
    overtraining_check,
    run_uncertainty,
    scores_by_process,
)
from .features import WEAK_MODES, FeaturePipeline, fit_feature_pipeline, variable_set
from .ising import AugmentedClassifierSet, keep_count
from .zoom import TrainedModel, ZoomConfig, prepare, run_qamlz

#: grid points whose post-prune coupler count exceeds this have no hardware
#: embedding; mirrors the 5600-coupler graph of the emulated annealer
DEFAULT_COUPLER_BUDGET = 5600

SCAN_HEADER = ("delta", "offset_range", "cutoff_pct", "fixing",
               "mean_fom", "std_fom", "status")
FOM_CURVE_HEADER = ("cut", "fom", "s_yield", "b_yield",
                    "n_signal", "n_background", "valid")
FOM_TABLE_HEADER = ("s", "b", "f", "fom")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """The csv module writes each float as the shortest digits that read back to it."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n",
                    encoding="utf-8")


def load_config(path: str | Path):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return read_json(raw, ConfigError, f"config {path}")


# ---------------------------------------------------------------------------
# Config -> objects. Every value is read once, by `from_json`: a section that
# is a dataclass by its fields, any other by a {key: kind} table. An absent
# key is not passed on, so its default lives only with its owner.
# ---------------------------------------------------------------------------


_CONFIG = {"seed": int, "out_dir": str, "model": str, "variables": object, "weak_mode": str,
           "n_bins": int, "pca": bool, "data": object, "zoom": object, "fom": object,
           "scan": object, "fom_curve": object}
_DATA = {"csv": str, "schema": tuple[str, ...] | None, "generator": object, "n_events": int,
         "preselection": bool, "qa_fraction": float, "assess_processes": tuple[str, ...]}
_PRESET = {"preset": str, "s_tot": float, "b_tot": float, "signal_fraction": float}
_SCAN = {"delta": tuple[float, ...], "offset_range": tuple[int, ...],
         "cutoff_pct": tuple[float, ...], "fixing": tuple[bool, ...],
         "n_runs": int, "coupler_budget": int}
_FOM_CURVE = dict.fromkeys("sbf", tuple[float, ...])
#: upper bounds of the data counts: the generated event table's largest
#: array holds 136 B per event, 2 GiB at 2^24 events, and a weak classifier
#: keeps one response per bin of every variable
_MAX_EVENTS = 1 << 24
_MAX_BINS = 1 << 16
#: upper bounds of the scan: each run of a grid point is one more training,
#: and `read_config` builds and checks one `ZoomConfig` per point
_MAX_RUNS = 1 << 10
_MAX_POINTS = 1 << 12
#: each `fom` row, one per (s, b, f), is one figure-of-merit evaluation and
#: one line of fom.csv
_MAX_FOM_ROWS = 1 << 16
#: the scan axes, each a `ZoomConfig` field
_AXES = ("delta", "offset_range", "cutoff_pct", "fixing")


@dataclass(frozen=True)
class Config:
    """The config document, read and checked by `read_config`."""

    seed: int
    out_dir: Path
    model: Path
    data: Mapping  # the `data` section without its generator
    generator: GeneratorSpec | None
    features: Mapping  # keyword arguments of `fit_feature_pipeline`
    zoom: ZoomConfig
    fom: FomParams
    n_runs: int
    coupler_budget: int
    grid: tuple[ZoomConfig, ...]  # one per scan point; () without a `scan` section
    fom_curve: Mapping


def _generator_from_config(doc) -> GeneratorSpec:
    """The default spec for a `preset` of "default", or the inline spec of an
    object with a `processes` key; any other generator is a `ConfigError`."""
    where = "data.generator"
    if isinstance(doc, Mapping) and doc.get("preset") == "default":
        preset = from_json(_PRESET, doc, where)
        del preset["preset"]
        return default_generator_spec(**preset)
    if not isinstance(doc, Mapping) or "preset" in doc or "processes" not in doc:
        raise ConfigError(f'{where} must be {{"preset": "default"}} or an inline spec '
                          f'with a "processes" key, got {shown(doc)}')
    try:
        return from_json(GeneratorSpec, doc, where)
    except ConfigError as exc:
        raise ConfigError(f"bad generator spec: {exc}") from exc


def read_config(doc, seed: int | None = None, solver: str | None = None) -> Config:
    """Read every section of the config document once, so an unknown key or a
    bad value is a `ConfigError` before any command runs, whichever sections
    it goes on to use. `seed` and `solver` override the document's."""
    top = from_json(_CONFIG, doc, "")
    seed = top.get("seed", 0) if seed is None else seed
    out_dir = Path(top.get("out_dir", "out"))
    data = from_json(_DATA, top.get("data", {}), "data")
    if data.get("n_events", 0) > _MAX_EVENTS:
        raise ConfigError(f"data.n_events must be <= {_MAX_EVENTS}, got {data['n_events']}")
    generator = data.pop("generator", None)
    for name in data.get("assess_processes", ()):
        if name not in PROCESSES:
            raise ConfigError(f"data.assess_processes names an unknown process {name!r}"
                              f"{did_you_mean(name, PROCESSES)}; expected one of {PROCESSES}")

    selector = top.get("variables", "beta")
    if not isinstance(selector, str):
        selector = from_json(tuple[str, ...], selector, "variables")
    variables, weak_mode = variable_set(selector)
    weak_mode = top.get("weak_mode", weak_mode)
    if weak_mode not in WEAK_MODES:
        raise ConfigError(f"unknown weak_mode {weak_mode!r}{did_you_mean(weak_mode, WEAK_MODES)}"
                          f"; expected one of {WEAK_MODES}")
    if "n_bins" in top and top["n_bins"] < 2:
        raise ConfigError(f"n_bins must be >= 2, got {top['n_bins']}")
    if "n_bins" in top and top["n_bins"] > _MAX_BINS:
        raise ConfigError(f"n_bins must be <= {_MAX_BINS}, got {top['n_bins']}")
    features = {"variables": variables, "weak_mode": weak_mode,
                **{k: top[k] for k in ("n_bins",) if k in top}}
    if "pca" in top:
        features["use_pca"] = top["pca"]

    zoom = top.get("zoom", {})
    if solver and isinstance(zoom, Mapping):
        zoom = {**zoom, "solver": solver}
    zoom = from_json(ZoomConfig, zoom, "zoom", seed=seed)

    scan = from_json(_SCAN, top.get("scan", {}), "scan")
    n_runs = scan.get("n_runs", 2)
    budget = scan.get("coupler_budget", DEFAULT_COUPLER_BUDGET)
    axes = [scan.get(name, (getattr(zoom, name),)) for name in _AXES]
    if scan and not all(axes):
        raise ConfigError("scan grid axes must be non-empty")
    if n_runs < 2:
        raise ConfigError(f"scan.n_runs must be >= 2 for a standard deviation, got {n_runs}")
    if n_runs > _MAX_RUNS:
        raise ConfigError(f"scan.n_runs must be <= {_MAX_RUNS}, got {n_runs}")
    n_points = np.prod([len(axis) for axis in axes], dtype=object)  # exact, unbounded
    if n_points > _MAX_POINTS:
        raise ConfigError(f"the scan grid must have at most {_MAX_POINTS} points, got {n_points}")
    if budget < 0:
        raise ConfigError(f"scan.coupler_budget must be >= 0, got {budget}")
    if scan and seed + n_runs - 1 >= 2**64:
        raise ConfigError(f"seed + scan.n_runs - 1 must be below 2**64, since run k of a "
                          f"grid point trains at seed + k; got seed {seed}")
    grid = tuple(dataclasses.replace(zoom, **dict(zip(_AXES, point)))
                 for point in itertools.product(*axes)) if scan else ()
    fom_curve = from_json(_FOM_CURVE, top.get("fom_curve", {}), "fom_curve")
    n_rows = np.prod([len(values) for values in fom_curve.values()], dtype=object)
    if n_rows > _MAX_FOM_ROWS:
        raise ConfigError(f"fom_curve must give at most {_MAX_FOM_ROWS} rows, got {n_rows}")

    return Config(
        seed=seed, out_dir=out_dir, model=Path(top.get("model", out_dir / "model.json")),
        data=data, generator=None if generator is None else _generator_from_config(generator),
        features=features, zoom=zoom, fom=from_json(FomParams, top.get("fom", {}), "fom"),
        n_runs=n_runs, coupler_budget=budget, grid=grid, fom_curve=fom_curve,
    )


def prepare_data(cfg: Config) -> Dataset:
    if "csv" in cfg.data:
        data = load_events(cfg.data["csv"], cfg.data.get("schema"))
    elif cfg.generator is not None:
        if cfg.data.get("n_events", 0) <= 0:
            raise ConfigError("data.n_events must be a positive integer")
        data = generate_synthetic(cfg.generator, cfg.data["n_events"], cfg.seed)
    else:
        raise ConfigError("config needs data.csv or data.generator")
    if cfg.data.get("preselection"):
        data = apply_preselection(data)
    return data


def prepare_split(cfg: Config) -> SampleSplit:
    opts = {k: cfg.data[k] for k in ("qa_fraction", "assess_processes") if k in cfg.data}
    return split_samples(prepare_data(cfg), seed=cfg.seed, **opts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: Config) -> int:
    data = prepare_data(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "events.csv"
    data.to_csv(path)
    sig = data.tags == 1
    print(f"wrote {path}: {len(data)} events "
          f"(signal yield {data.weights[sig].sum():.6g}, "
          f"background yield {data.weights[~sig].sum():.6g})")
    return 0


def cmd_train(cfg: Config) -> int:
    split = prepare_split(cfg)
    pipeline = fit_feature_pipeline(split.train, **cfg.features)
    problem = prepare(split.train, split.test, pipeline, cfg.zoom.delta, cfg.zoom.offset_range)
    model = run_qamlz(problem, cfg.zoom)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "model.json", dataclasses.asdict(model))
    with (cfg.out_dir / "train_log.jsonl").open("w", encoding="utf-8") as fh:
        for rec in model.trajectory:
            fh.write(json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n")
    final = model.trajectory[-1]
    print(f"wrote {cfg.out_dir / 'model.json'}: {model.aug.n_spins} spins, "
          f"final train distance {final.train_distance:.6g}, "
          f"test distance {final.test_distance:.6g}")
    return 0


def cmd_eval(cfg: Config) -> int:
    if not cfg.model.exists():
        raise DataError(f"model file not found: {cfg.model} (run `train` first?)")
    try:
        doc = read_json(cfg.model.read_bytes(), DataError, f"model file {cfg.model}")
        model = from_json(TrainedModel, doc, "model")
    except (OSError, ConfigError) as exc:
        raise DataError(f"malformed model file {cfg.model}: {exc}") from exc
    split = prepare_split(cfg)
    curve = fom_scan_dataset(model, split.assess, cfg.fom)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    columns = (curve.cuts, curve.fom_values, curve.s_yields, curve.b_yields,
               curve.n_signal, curve.n_background, curve.valid.astype(int))
    _write_csv(cfg.out_dir / "fom_curve.csv", FOM_CURVE_HEADER,
               zip(*(c.tolist() for c in columns)))
    _write_json(cfg.out_dir / "eval_summary.json", {
        "best_cut": curve.best_cut,
        "best_fom": None if curve.no_valid_cut else curve.best_fom,
        "s_at_best": curve.s_at_best,
        "b_at_best": curve.b_at_best,
        "no_valid_cut": curve.no_valid_cut,
        "f": cfg.fom.f,
    })
    report = overtraining_check(
        scores_by_process(model, split.train), scores_by_process(model, split.test)
    )
    _write_json(cfg.out_dir / "overtraining.json", {
        name: {"statistic": stat, "p_value": pval}
        for name, (stat, pval) in sorted(report.items())
    })
    if curve.no_valid_cut:
        print("no valid cut: every grid point fails the event-count floor")
    else:
        print(f"best fom {curve.best_fom:.6g} at cut {curve.best_cut:.6g} "
              f"(S={curve.s_at_best:.6g}, B={curve.b_at_best:.6g})")
    return 0


@dataclass
class _ScanContext:
    """What every grid point of a scan reads: the split, the feature pipeline
    and the scan settings, with a one-entry cache of the last layout's
    prepared problem and assess sign matrix. The grid is layout-major, as
    `delta` and `offset_range` are the outer axes of `read_config`'s product,
    and a process takes its points in grid order, so it prepares each layout
    at most once and holds one layout's arrays at a time."""

    split: SampleSplit
    pipeline: FeaturePipeline
    params: FomParams
    n_runs: int
    budget: int
    layout: tuple = ()
    prepared: tuple = ()  # (TrainingProblem, assess signs) of `layout`

    def prepared_for(self, zcfg: ZoomConfig) -> tuple:
        layout = (zcfg.delta, zcfg.offset_range)
        if layout != self.layout:
            self.layout, self.prepared = (), ()  # the old arrays go before the new are built
            problem = prepare(self.split.train, self.split.test, self.pipeline, *layout)
            self.prepared = problem, event_signs(self.pipeline, problem.aug, self.split.assess)
            self.layout = layout
        return self.prepared


#: a scan worker's context, set once per worker process by `_start_scan_worker`
_worker_context: _ScanContext | None = None


def _start_scan_worker(*fields) -> None:
    global _worker_context
    _worker_context = _ScanContext(*fields)


def _scan_point(zcfg: ZoomConfig, ctx: _ScanContext | None = None) -> tuple:
    """The scan.csv row of one grid point, on `ctx` or, in a pool worker, on
    the worker's context."""
    ctx = _worker_context if ctx is None else ctx
    point = tuple(getattr(zcfg, name) for name in _AXES)
    n_spins = AugmentedClassifierSet(ctx.pipeline.weak, zcfg.delta, zcfg.offset_range).n_spins
    if keep_count(n_spins * (n_spins - 1) // 2, zcfg.cutoff_pct) > ctx.budget:
        return (*point, "", "", "no embedding")
    problem, assess_signs = ctx.prepared_for(zcfg)
    report = run_uncertainty(zcfg, problem, ctx.split.assess, assess_signs,
                             n_runs=ctx.n_runs, params=ctx.params)
    return (*point, report.mean, report.std, "ok")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def cmd_scan(cfg: Config, jobs: int) -> int:
    if not cfg.grid:
        raise ConfigError("config needs a `scan` section with grid axes")
    split = prepare_split(cfg)
    pipeline = fit_feature_pipeline(split.train, **cfg.features)
    context = (split, pipeline, cfg.fom, cfg.n_runs, cfg.coupler_budget)
    # the pool starts all its workers at once, so it is no larger than the
    # grid or the CPUs this process may run on
    jobs = min(jobs, len(cfg.grid), _usable_cpus())
    if jobs > 1:
        # each worker receives the context once, and a task is one ZoomConfig
        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_scan_worker,
                                 initargs=context) as pool:
            rows = list(pool.map(_scan_point, cfg.grid))
    else:
        ctx = _ScanContext(*context)
        rows = [_scan_point(zcfg, ctx) for zcfg in cfg.grid]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out_dir / "scan.csv", SCAN_HEADER, rows)
    infeasible = sum(1 for r in rows if r[-1] == "no embedding")
    print(f"wrote {cfg.out_dir / 'scan.csv'}: {len(rows)} grid points, {infeasible} infeasible")
    return 4 if infeasible else 0


def cmd_fom(cfg: Config) -> int:
    opts = cfg.fom_curve
    if not opts:
        raise ConfigError("config needs a `fom_curve` section with s, b and f lists")
    s_values, b_values = opts.get("s", ()), opts.get("b", ())
    f_values = opts.get("f", (cfg.fom.f,))
    if not (s_values and b_values and f_values):
        raise ConfigError("fom_curve.s, fom_curve.b and fom_curve.f must be non-empty")
    rows = [
        (s, b, f, fom(s, b, f))
        for s, b, f in itertools.product(s_values, b_values, f_values)
    ]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out_dir / "fom.csv", FOM_TABLE_HEADER, rows)
    print(f"wrote {cfg.out_dir / 'fom.csv'}: {len(rows)} rows")
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
        cfg = read_config(load_config(args.config), args.seed, args.solver)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "scan":
            return cmd_scan(cfg, max(1, args.jobs))
        return cmd_fom(cfg)
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
