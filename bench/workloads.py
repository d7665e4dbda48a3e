"""The benchmark's workloads: configs built from the seed, the qamlz commands
each pass runs, and the checks every pass's outputs must meet.

Every config is a pure function of (seed, smoke); qamlz sees only the config
files and, for `csv_pipeline`, the events file its own `gen` wrote. Smoke
sizes are tiny versions of the same workloads, for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

PROCESSES = ("signal", "wjets", "ttbar", "other")
FOM_CURVE_HEADER = ["cut", "fom", "s_yield", "b_yield", "n_signal", "n_background", "valid"]
SCAN_HEADER = ["delta", "offset_range", "cutoff_pct", "fixing", "mean_fom", "std_fom", "status"]
TRAIN_LOG_KEYS = {"t", "sigma", "train_distance", "test_distance",
                  "n_candidates", "broken_chain_fraction"}
FOM_GRID_POINTS = 201  # qamlz default `fom.grid_points`

#: which command writes each output file
PRODUCER = {
    "events.csv": "gen",
    "model.json": "train",
    "train_log.jsonl": "train",
    "fom_curve.csv": "eval",
    "eval_summary.json": "eval",
    "overtraining.json": "eval",
    "scan.csv": "scan",
}


@dataclass(frozen=True)
class Step:
    command: str      # qamlz subcommand
    config: str       # config file name inside the pass directory
    jobs: int = 1
    expect_rc: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]


# Sizes are chosen so that a pass takes 2-5 s on a 2-core machine: each run
# then repeats about 5 to 12 passes within BENCHMARK.json's run_seconds, and
# the timings are medians over passes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_sa",
            why=(
                "The paper's protocol (train, then eval) scaled down: 5000 events, 84 "
                "spins (variables beta, 12 x 7 offsets), 85% pruning to 523 couplers, "
                "8 zoom iterations of one SA solve each, 100 reads x 200 sweeps. The SA "
                "Metropolis loop is the largest share of train, so a solver-kernel gain "
                "shows here; CSV I/O is never used and the Ising dict code is a few "
                "percent."
            ),
            steps=(Step("train", "cfg.json"), Step("eval", "cfg.json")),
        ),
        Workload(
            name="scan_short",
            why=(
                "`scan --jobs 2` over 8 grid points (delta 0.025 x offset_range {3, 5} x "
                "cutoff {0, 85}% x fixing {no, yes}, 2 runs each) on 10000 events with a "
                "short anneal (16 reads x 10 sweeps, n_e 2), so fixed per-problem costs "
                "(effective_problem, prune, apply_gauge, energies_batch, ladder, "
                "dense_couplers, weighted_distance, flip_step, fix_variables) carry a "
                "large share. It is the only workload that runs the process pool, "
                "run_uncertainty and repeated coupling sums; the 2 points with offset "
                "range 5 and no pruning exceed the coupler budget, so the exit code is 4."
            ),
            steps=(Step("scan", "cfg.json", jobs=2, expect_rc=4),),
        ),
        Workload(
            name="csv_pipeline",
            why=(
                "`gen` of 12000 events to a CSV, then train and eval reading it: event "
                "generation, to_csv and load_events are the largest layer, and the "
                "solver is exact enumeration of 17 spins (variables A with PCA, no "
                "offsets) over 4 zoom iterations, never SA. For an SA-kernel change the "
                "prediction here is no change."
            ),
            steps=(Step("gen", "gen.json"), Step("train", "cfg.json"), Step("eval", "cfg.json")),
        ),
    )
}


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------


def configs(name: str, seed: int, smoke: bool) -> dict[str, dict]:
    """{config file name: config document} for one workload and seed."""
    generator = {"preset": "default"}
    if name == "train_sa":
        schedule = ({"n_reads": 8, "sweeps": 10, "n_g": [2, 1]} if smoke
                    else {"n_reads": 100, "sweeps": 200, "n_g": [1]})
        return {"cfg.json": {
            "seed": seed, "out_dir": "out",
            "data": {"generator": generator, "n_events": 3000 if smoke else 5000},
            "variables": "beta",
            "zoom": {"iterations": 3 if smoke else 8, "cutoff_pct": 85.0, "solver": "sa",
                     "schedule": schedule},
            "fom": {"f": 0.2},
        }}
    if name == "scan_short":
        schedule = ({"n_reads": 4, "sweeps": 4, "n_g": [1], "n_e": [2]} if smoke
                    else {"n_reads": 16, "sweeps": 10, "n_g": [2, 1], "n_e": [2]})
        return {"cfg.json": {
            "seed": seed, "out_dir": "out",
            "data": {"generator": generator, "n_events": 3000 if smoke else 10000},
            "variables": "beta",
            "zoom": {"iterations": 2 if smoke else 8, "solver": "sa", "schedule": schedule},
            "scan": {"delta": [0.025], "offset_range": [3, 5], "cutoff_pct": [0.0, 85.0],
                     "fixing": [False, True], "n_runs": 2, "coupler_budget": 5600},
            "fom": {"f": 0.2},
        }}
    if name == "csv_pipeline":
        return {
            "gen.json": {
                "seed": seed, "out_dir": "out",
                "data": {"generator": generator, "n_events": 3000 if smoke else 12000},
            },
            "cfg.json": {
                "seed": seed, "out_dir": "out",
                "data": {"csv": "out/events.csv"},
                "variables": "A", "pca": True,
                "zoom": {"iterations": 2 if smoke else 4, "offset_range": 0,
                         "solver": "exact", "schedule": {"n_g": [1]}},
                "fom": {"f": 0.2},
            },
        }
    raise KeyError(name)


def problem_sizes(name: str, cfgs: dict[str, dict]) -> dict:
    """Events, spins, couplers kept, reads x sweeps and (where the config
    fixes it) SA calls per training run. The scan records one entry per
    feasible grid point; its SA call count depends on fixing and comes from
    the traced run."""
    cfg = cfgs["cfg.json"]
    zoom = cfg["zoom"]
    sched = zoom["schedule"]
    events = cfgs.get("gen.json", cfg)["data"]["n_events"]
    sizes = {"events": events}
    if zoom["solver"] == "sa":
        sizes["reads_x_sweeps"] = f"{sched['n_reads']} x {sched['sweeps']}"
    if name == "scan_short":
        grid = cfg["scan"]
        sizes["points"] = [
            {"offset_range": a, "cutoff_pct": c, "spins": n, "couplers_kept": kept}
            for a in grid["offset_range"] for c in grid["cutoff_pct"]
            for n in [n_spins(cfg["variables"], a)]
            for kept in [couplers_kept(n, c)] if kept <= grid["coupler_budget"]
        ]
        return sizes
    n = n_spins(cfg["variables"], zoom.get("offset_range", 3))
    sizes["spins"] = n
    sizes["couplers_kept"] = couplers_kept(n, zoom.get("cutoff_pct", 0.0))
    n_g = sched.get("n_g", [1])
    # one candidate per iteration (n_e = 1), so one solve per gauge
    calls = sum(n_g[min(t, len(n_g) - 1)] for t in range(zoom["iterations"]))
    sizes["sa_calls"] = calls if zoom["solver"] == "sa" else 0
    return sizes


def couplers_kept(spins: int, cutoff_pct: float) -> int:
    """prune's keep count: the largest ceil((1 - C/100) * M) of M couplers."""
    return math.ceil((1.0 - cutoff_pct / 100.0) * (spins * (spins - 1) // 2))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_events(path: Path, n_events: int) -> list[str]:
    rows = _read_csv(path)
    if rows[0][:3] != ["tag", "weight", "process"]:
        return ["events.csv: bad header"]
    if len(rows) - 1 != n_events:
        return [f"events.csv: {len(rows) - 1} rows, expected {n_events}"]
    for r, row in enumerate(rows[1:], start=1):
        if (len(row) != len(rows[0]) or row[0] not in ("1", "-1") or row[2] not in PROCESSES
                or not all(math.isfinite(float(v)) for v in row[3:])
                or not float(row[1]) >= 0.0):
            return [f"events.csv: bad row {r}"]
    return []


def _check_model(out: Path, iterations: int, n_spins: int) -> list[str]:
    errors = []
    model = json.loads((out / "model.json").read_text())
    if len(model["mu"]) != n_spins or not all(_finite(v) for v in model["mu"]):
        errors.append(f"model.json: mu must be {n_spins} finite weights")
    if len(model["trajectory"]) != iterations:
        errors.append("model.json: trajectory length differs from iterations")
    lines = (out / "train_log.jsonl").read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    if len(recs) != iterations or any(set(r) != TRAIN_LOG_KEYS for r in recs):
        errors.append("train_log.jsonl: one record per iteration with the documented keys")
    elif not all(_finite(r["train_distance"]) and _finite(r["test_distance"]) for r in recs):
        errors.append("train_log.jsonl: non-finite distance")
    return errors


def _check_eval(out: Path) -> tuple[list[str], float | None]:
    errors = []
    rows = _read_csv(out / "fom_curve.csv")
    if rows[0] != FOM_CURVE_HEADER or len(rows) - 1 != FOM_GRID_POINTS:
        errors.append("fom_curve.csv: bad header or row count")
    else:
        for row in rows[1:]:
            value = float(row[1])
            # +inf is the documented zero-background limit, only at invalid cuts
            if math.isnan(value) or (row[6] == "1" and not math.isfinite(value)):
                errors.append("fom_curve.csv: non-finite figure of merit at a valid cut")
                break
    summary = json.loads((out / "eval_summary.json").read_text())
    best = summary.get("best_fom")
    if summary.get("no_valid_cut") or not _finite(best) or not best > 0:
        errors.append("eval_summary.json: best_fom must be a positive finite number")
        best = None
    over = json.loads((out / "overtraining.json").read_text())
    if not over or not all(_finite(v["statistic"]) and _finite(v["p_value"])
                           for v in over.values()):
        errors.append("overtraining.json: non-finite KS statistic or p-value")
    return errors, best


def _check_scan(out: Path, cfg: dict) -> tuple[list[str], float | None]:
    rows = _read_csv(out / "scan.csv")
    grid = cfg["scan"]
    n_points = (len(grid["delta"]) * len(grid["offset_range"]) * len(grid["cutoff_pct"])
                * len(grid["fixing"]))
    if rows[0] != SCAN_HEADER or len(rows) - 1 != n_points:
        return ["scan.csv: bad header or row count"], None
    errors = []
    foms = []
    for row in rows[1:]:
        spins = n_spins(cfg["variables"], int(row[1]))
        infeasible = couplers_kept(spins, float(row[2])) > grid["coupler_budget"]
        if row[6] != ("no embedding" if infeasible else "ok"):
            errors.append(f"scan.csv: status {row[6]!r} for offset_range {row[1]}, "
                          f"cutoff {row[2]}")
        elif not infeasible:
            mean, std = float(row[4]), float(row[5])
            if not (math.isfinite(mean) and math.isfinite(std) and mean > 0):
                errors.append("scan.csv: non-finite figure of merit")
            foms.append(mean)
    return errors, (max(foms) if foms and not errors else None)


def check_outputs(name: str, out: Path, cfgs: dict[str, dict]) -> tuple[dict[str, list[str]], float | None]:
    """Errors per producing command, and the pass's best figure of merit."""
    errors: dict[str, list[str]] = {}
    best = None

    def guarded(command, fn, *args):
        try:
            return fn(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors.setdefault(command, []).append(f"{fn.__name__}: {exc!r}")
            return None

    cfg = cfgs["cfg.json"]
    if name == "scan_short":
        res = guarded("scan", _check_scan, out, cfg)
        if res is not None:
            errors["scan"] = res[0]
            best = res[1]
        return {k: v for k, v in errors.items() if v}, best
    if name == "csv_pipeline":
        gen = cfgs["gen.json"]["data"]
        res = guarded("gen", _check_events, out / "events.csv", gen["n_events"])
        errors.setdefault("gen", []).extend(res or [])
    zoom = cfg["zoom"]
    res = guarded("train", _check_model, out, zoom["iterations"],
                  n_spins(cfg["variables"], zoom.get("offset_range", 3)))
    errors.setdefault("train", []).extend(res or [])
    res = guarded("eval", _check_eval, out)
    if res is not None:
        errors.setdefault("eval", []).extend(res[0])
        best = res[1]
    return {k: v for k, v in errors.items() if v}, best


def n_spins(variables: str, offset_range: int) -> int:
    """Spins of a variable set with 2A+1 offset copies per classifier (qamlz
    defaults to A = 3)."""
    return {"beta": 12, "A": 17}[variables] * (2 * offset_range + 1)
