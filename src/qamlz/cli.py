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
from .solver import AnnealSchedule, ChainConfig, _is_number
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


def load_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _bad("config", "an object", doc)
    return doc


# ---------------------------------------------------------------------------
# Config reader: each present key is checked and converted by its kind; an
# absent key is not passed on, so its default lives only with its owner.
# ---------------------------------------------------------------------------


def _bad(where: str, what: str, value) -> ConfigError:
    return ConfigError(f"{where} must be {what}, got {json.dumps(value)}")


def _kind(what: str, test, convert=None):
    """A converter for values that pass `test`; any other value is a
    `ConfigError` naming the key and the kind it must be."""
    def read(value, where: str):
        if not test(value):
            raise _bad(where, what, value)
        return value if convert is None else convert(value)
    return read


# an integer may be written as an integral number such as 8.0
_integer = _kind("an integer", lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
                 int)
# JSON admits NaN and Infinity, and an integer too large for a float
_number = _kind("a finite number", lambda v: _is_number(v) and abs(v) <= sys.float_info.max,
                float)
_boolean = _kind("true or false", lambda v: isinstance(v, bool))
_string = _kind("a string", lambda v: isinstance(v, str))


def _list(kind):
    def convert(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise _bad(where, "a list", value)
        return tuple(kind(v, f"{where}[{i}]") for i, v in enumerate(value))
    return convert


def _or_null(kind):
    def convert(value, where: str):
        return None if value is None else kind(value, where)
    return convert


def _object(cfg: Mapping, path: str) -> Mapping:
    """The object at the dotted `path` ("" is the whole config); {} when absent."""
    doc, keys = cfg, path.split(".") if path else []
    for depth, key in enumerate(keys, 1):
        doc = doc.get(key, {})
        if not isinstance(doc, dict):
            raise _bad(".".join(keys[:depth]), "an object", doc)
    return doc


#: config keys whose parameter has another name
_PARAM = {"lambda": "lam", "pca": "use_pca"}


def _options(cfg: Mapping, path: str, kinds: Mapping) -> dict:
    """{parameter: converted value} for each key of `kinds` present at `path`."""
    doc = _object(cfg, path)
    prefix = path + "." if path else ""
    return {_PARAM.get(key, key): kind(doc[key], prefix + key)
            for key, kind in kinds.items() if key in doc}


_DATA = {"csv": _string, "schema": _or_null(_list(_string)), "n_events": _integer,
         "preselection": _boolean}
_GENERATOR_PRESET = {"s_tot": _number, "b_tot": _number, "signal_fraction": _number}
_SPLIT = {"qa_fraction": _number, "assess_processes": _list(_string)}
_PIPELINE = {"weak_mode": _string, "n_bins": _integer, "pca": _boolean}
_ZOOM = {"iterations": _integer, "base": _number, "delta": _number,
         "offset_range": _integer, "p_flip": _or_null(_list(_number)),
         "q_flip": _or_null(_list(_number)), "cutoff_pct": _number, "fixing": _boolean,
         "solver": _string, "external_command": _or_null(_list(_string)),
         "external_timeout": _or_null(_number), "lambda": _number}
_SCHEDULE = {"n_reads": _integer, "sweeps": _integer, "t_hot": _or_null(_number),
             "t_cold": _number, "n_g": _list(_integer), "n_e": _list(_integer),
             "d": _list(_or_null(_number))}
_CHAIN = {"length": _integer, "strength": _number,
          "strength_schedule": _or_null(_list(_number))}
_SCAN = {"delta": _list(_number), "offset_range": _list(_integer),
         "cutoff_pct": _list(_number), "fixing": _list(_boolean),
         "n_runs": _integer, "coupler_budget": _integer}


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _generator_from_config(cfg: Mapping) -> GeneratorSpec:
    """The default spec for a `preset` of "default", or the inline spec of an
    object with a `processes` key; any other generator is a `ConfigError`."""
    doc = _object(cfg, "data.generator")
    if doc.get("preset") == "default":
        return default_generator_spec(**_options(cfg, "data.generator", _GENERATOR_PRESET))
    if "preset" in doc or "processes" not in doc:
        raise _bad("data.generator",
                   '{"preset": "default"} or an inline spec with a "processes" key', doc)
    try:
        return from_json(GeneratorSpec, doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator spec: {exc}") from exc


def prepare_data(cfg: Mapping, seed: int) -> Dataset:
    opts = _options(cfg, "data", _DATA)
    if "csv" in opts:
        data = load_events(opts["csv"], opts.get("schema"))
    elif "generator" in _object(cfg, "data"):
        spec = _generator_from_config(cfg)
        inline = _options(cfg, "data.generator", {"n_events": _integer})
        n_events = opts.get("n_events", inline.get("n_events"))
        if n_events is None or n_events <= 0:
            raise ConfigError("data.n_events must be a positive integer")
        data = generate_synthetic(spec, n_events, seed)
    else:
        raise ConfigError("config needs data.csv or data.generator")
    if opts.get("preselection"):
        data = apply_preselection(data)
    return data


def prepare_split(cfg: Mapping, data: Dataset, seed: int) -> SampleSplit:
    return split_samples(data, seed=seed, **_options(cfg, "data", _SPLIT))


def prepare_pipeline(cfg: Mapping, train: Dataset) -> FeaturePipeline:
    selector = cfg.get("variables", "beta")
    if not isinstance(selector, str):
        selector = _list(_string)(selector, "variables")
    variables, derived, weak_mode = variable_set(selector)
    return fit_feature_pipeline(train, variables=variables, derived=derived,
                                **{"weak_mode": weak_mode, **_options(cfg, "", _PIPELINE)})


def zoom_config(cfg: Mapping, seed: int, solver: str | None = None) -> ZoomConfig:
    opts = _options(cfg, "zoom", _ZOOM)
    if solver:
        opts["solver"] = solver
    return ZoomConfig(
        **opts,
        schedule=AnnealSchedule(**_options(cfg, "zoom.schedule", _SCHEDULE)),
        chain=ChainConfig(**_options(cfg, "zoom.chain", _CHAIN)),
        seed=seed,
    )


def fom_settings(cfg: Mapping) -> dict:
    """FomParams and the cut-scan options, as keyword arguments of
    `fom_scan_dataset` and `run_uncertainty`."""
    return {"params": FomParams(**_options(cfg, "fom", {"f": _number})),
            **_options(cfg, "fom", {"min_counts": _integer, "grid_points": _integer})}


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
    model_path = Path(_options(cfg, "", {"model": _string}).get("model", out_dir / "model.json"))
    if not model_path.exists():
        raise DataError(f"model file not found: {model_path} (run `train` first?)")
    try:
        model = from_json(TrainedModel, json.loads(model_path.read_text(encoding="utf-8")))
    except (OSError, ConfigError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed model file {model_path}: {exc!r}") from exc
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
    if not _object(cfg, "scan"):
        raise ConfigError("config needs a `scan` section with grid axes")
    opts = _options(cfg, "scan", _SCAN)
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
    if not _object(cfg, "fom_curve"):
        raise ConfigError("config needs a `fom_curve` section with s, b and f lists")
    opts = _options(cfg, "fom_curve", dict.fromkeys("sbf", _list(_number)))
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
        top = _options(cfg, "", {"seed": _integer, "out_dir": _string})
        seed = args.seed if args.seed is not None else top.get("seed", 0)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        out_dir = Path(top.get("out_dir", "out"))
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
