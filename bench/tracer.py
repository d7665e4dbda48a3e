"""Span tracer for the traced benchmark run, and the per-layer metrics it feeds.

`Tracer.patch` replaces a function or method at the place where qamlz looks
it up at call time with a wrapper that records a span (name, start, end,
parent) and, through an optional hook, counters. Spans stay in memory until
the traced command ends; `summary` then folds them into per-name call
counts, total times and self times. A span's self time is its duration minus
the time covered by its child spans.

`instrument` holds the patch table for the seven modules of `qamlz`, and
`layer_metrics` turns summed summaries into the `<module>.<what>` metrics that
BENCHMARK.json lists under `per_layer`.
"""

from __future__ import annotations

import collections
import functools
import os
import time


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Wrap `owner.attr` in a span named `name`. The hook runs after the
        span closes, as hook(counters, args, kwargs, result), so counting is not
        charged to the traced function."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "total_s", "self_s"}} over all closed spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child
        return out


# ---------------------------------------------------------------------------
# Counter hooks
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_sa(counters, args, kwargs, result) -> None:
    p, sched = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "sched")
    counters["solver.sa_calls"] += 1
    counters["solver.spin_updates"] += sched.n_reads * sched.sweeps * p.n_spins


def _count_samples(counters, args, kwargs, result) -> None:
    """Reads at the call's best energy, and distinct states, of one result
    handed back to the training loop."""
    import numpy as np

    e = np.asarray(result.energies)
    counters["solver.results"] += 1
    counters["solver.reads"] += len(e)
    counters["solver.ground_hits"] += int((e <= e[0] + 1e-9 * max(1.0, abs(e[0]))).sum())
    counters["solver.distinct_states"] += len(np.unique(np.asarray(result.spins), axis=0))


def _count_sa_outer(counters, args, kwargs, result) -> None:
    _count_sa(counters, args, kwargs, result)
    _count_samples(counters, args, kwargs, result)


def _count_exact(counters, args, kwargs, result) -> None:
    counters["solver.configs_enumerated"] += 2 ** _arg(args, kwargs, 0, "p").n_spins
    _count_samples(counters, args, kwargs, result)


def _count_problem(counters, args, kwargs, result) -> None:
    counters["ising.problems"] += 1


def _count_prune(counters, args, kwargs, result) -> None:
    counters["ising.pruned"] += 1
    counters["ising.couplers_kept"] += result.n_couplers
    counters["ising.spins_after_fix"] += result.n_spins


def _count_fix(counters, args, kwargs, result) -> None:
    # run_qamlz fixes the problem prune just returned: replace its spin count
    counters["ising.spins_after_fix"] += result[1].n_spins - _arg(args, kwargs, 0, "p").n_spins


def _count_couplings(counters, args, kwargs, result) -> None:
    counters["ising.couplings_calls"] += 1


def _count_distance(counters, args, kwargs, result) -> None:
    counters["zoom.distance_calls"] += 1


def _count_flip(counters, args, kwargs, result) -> None:
    counters["zoom.candidates_pooled"] += 1


def _count_generate(counters, args, kwargs, result) -> None:
    counters["dataset.events_generated"] += len(result)


def _count_csv(counters, args, kwargs, result) -> None:
    path = _arg(args, kwargs, 1, "path") if len(args) > 1 or "path" in kwargs else None
    if path is not None:
        counters["dataset.csv_bytes"] += os.path.getsize(path)


def _count_uncertainty(counters, args, kwargs, result) -> None:
    counters["evaluate.uncertainty_runs"] += len(result.max_foms)


def _count_scan_point(counters, args, kwargs, result) -> None:
    counters["cli.scan_points"] += 1
    counters["cli.scan_infeasible"] += result[-1] == "no embedding"


def instrument(tracer: Tracer) -> None:
    """Patch every traced qamlz entry point where the program resolves it."""
    from qamlz import cli, dataset, evaluate, features, ising, solver, zoom

    table = [
        # dataset
        (cli, "generate_synthetic", "dataset.generate", _count_generate),
        (dataset.Dataset, "to_csv", "dataset.to_csv", _count_csv),
        (cli, "load_events", "dataset.load_events", None),
        (cli, "split_samples", "dataset.split", None),
        (cli, "apply_preselection", "dataset.preselection", None),
        # features
        (cli, "fit_feature_pipeline", "features.fit", None),
        (features.FeaturePipeline, "transform", "features.transform", None),
        # ising
        (ising.AugmentedClassifierSet, "signs_from_h", "ising.signs", None),
        (zoom, "build_couplings_from_signs", "ising.couplings", _count_couplings),
        (zoom, "effective_problem", "ising.effective_problem", _count_problem),
        (zoom, "prune", "ising.prune", _count_prune),
        (zoom, "fix_variables", "ising.fix", _count_fix),
        (zoom, "apply_gauge", "ising.gauge", None),
        (solver, "energies_batch", "ising.energies", None),
        (ising.IsingProblem, "dense_couplers", "ising.dense_couplers", None),
        # solver: zoom resolves the backends; the chain emulator resolves solve_sa
        (zoom, "solve_sa", "solver.sa", _count_sa_outer),
        (solver, "solve_sa", "solver.sa", _count_sa),
        (zoom, "solve_exact", "solver.exact", _count_exact),
        (zoom, "solve_chain_emulated", "solver.chain", _count_samples),
        (solver.AnnealSchedule, "ladder", "solver.ladder", None),
        # zoom
        (cli, "run_qamlz", "zoom.run_qamlz", None),
        (evaluate, "run_qamlz", "zoom.run_qamlz", None),
        (zoom, "weighted_distance", "zoom.distance", _count_distance),
        (zoom, "flip_step", "zoom.flip", _count_flip),
        # evaluate
        (cli, "fom_scan_dataset", "evaluate.fom_scan_dataset", None),
        (evaluate, "fom_scan_dataset", "evaluate.fom_scan_dataset", None),
        (evaluate, "score_events", "evaluate.score", None),
        (evaluate, "fom_scan", "evaluate.fom_scan", None),
        (cli, "overtraining_check", "evaluate.overtraining", None),
        (cli, "scores_by_process", "evaluate.scores_by_process", None),
        (cli, "run_uncertainty", "evaluate.uncertainty", _count_uncertainty),
        # cli: per-point work of `scan`, resolved by cmd_scan when --jobs is 1
        (cli, "_scan_point", "cli.scan_point", _count_scan_point),
    ]
    for owner, attr, name, hook in table:
        tracer.patch(owner, attr, name, hook)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("solver.sa_s", "s", "lower"),
    ("solver.spin_updates_per_s", "1/s", "higher"),
    ("solver.sa_calls", "count", "lower"),
    ("solver.spin_updates", "count", "lower"),
    ("solver.ladder_s", "s", "lower"),
    ("solver.exact_s", "s", "lower"),
    ("solver.configs_enumerated", "count", "lower"),
    ("solver.ground_hit_frac", "fraction", "higher"),
    ("solver.distinct_states_mean", "count", "lower"),
    ("ising.effective_problem_s", "s", "lower"),
    ("ising.prune_s", "s", "lower"),
    ("ising.fix_s", "s", "lower"),
    ("ising.gauge_s", "s", "lower"),
    ("ising.energies_s", "s", "lower"),
    ("ising.dense_couplers_s", "s", "lower"),
    ("ising.couplings_s", "s", "lower"),
    ("ising.couplings_calls", "count", "lower"),
    ("ising.signs_s", "s", "lower"),
    ("ising.problems", "count", "lower"),
    ("ising.couplers_kept_mean", "count", "lower"),
    ("ising.spins_after_fix_mean", "count", "lower"),
    ("zoom.distance_s", "s", "lower"),
    ("zoom.distance_calls", "count", "lower"),
    ("zoom.flip_s", "s", "lower"),
    ("zoom.self_s", "s", "lower"),
    ("zoom.candidates_pooled", "count", "lower"),
    ("dataset.generate_s", "s", "lower"),
    ("dataset.events_per_s", "1/s", "higher"),
    ("dataset.to_csv_s", "s", "lower"),
    ("dataset.load_events_s", "s", "lower"),
    ("dataset.csv_bytes", "B", "lower"),
    ("dataset.split_s", "s", "lower"),
    ("features.fit_s", "s", "lower"),
    ("features.transform_s", "s", "lower"),
    ("evaluate.score_s", "s", "lower"),
    ("evaluate.fom_scan_s", "s", "lower"),
    ("evaluate.overtraining_s", "s", "lower"),
    ("evaluate.uncertainty_runs", "count", "lower"),
    ("evaluate.best_fom", "fom", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.scan_points", "count", "lower"),
    ("cli.scan_infeasible", "count", "lower"),
    ("cli.scan_parallel_eff", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)

#: counts that must repeat exactly between two traced passes at one seed
EXACT_COUNTS = (
    "solver.sa_calls",
    "solver.spin_updates",
    "solver.configs_enumerated",
    "ising.problems",
    "ising.couplings_calls",
    "zoom.distance_calls",
    "zoom.candidates_pooled",
)

#: span name -> per-layer self-time metric
_SELF_TIME = {
    "solver.sa": "solver.sa_s",
    "solver.ladder": "solver.ladder_s",
    "solver.exact": "solver.exact_s",
    "ising.effective_problem": "ising.effective_problem_s",
    "ising.prune": "ising.prune_s",
    "ising.fix": "ising.fix_s",
    "ising.gauge": "ising.gauge_s",
    "ising.energies": "ising.energies_s",
    "ising.dense_couplers": "ising.dense_couplers_s",
    "ising.couplings": "ising.couplings_s",
    "ising.signs": "ising.signs_s",
    "zoom.distance": "zoom.distance_s",
    "zoom.flip": "zoom.flip_s",
    "zoom.run_qamlz": "zoom.self_s",
    "dataset.generate": "dataset.generate_s",
    "dataset.to_csv": "dataset.to_csv_s",
    "dataset.load_events": "dataset.load_events_s",
    "dataset.split": "dataset.split_s",
    "features.fit": "features.fit_s",
    "features.transform": "features.transform_s",
    "evaluate.score": "evaluate.score_s",
    "evaluate.fom_scan": "evaluate.fom_scan_s",
    "evaluate.overtraining": "evaluate.overtraining_s",
}


def merge(reports: list[dict]) -> tuple[dict, collections.Counter]:
    """Sum the span summaries and counters of several traced commands."""
    spans: dict[str, dict[str, float]] = {}
    counters: collections.Counter = collections.Counter()
    for rep in reports:
        for name, rec in rep["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        counters.update(rep["counters"])
    return spans, counters


def layer_self_times(spans: dict) -> dict[str, float]:
    """Self time per layer (the module prefix of each span name)."""
    out: dict[str, float] = collections.defaultdict(float)
    for name, rec in spans.items():
        out[name.split(".", 1)[0]] += rec["self_s"]
    return dict(out)


def layer_metrics(spans: dict, counters: collections.Counter,
                  overhead_frac: float, parallel_eff: float) -> dict[str, float]:
    """Every PER_LAYER metric from merged spans and counters. Metrics of a
    layer the workload never enters read 0."""
    m = {metric: 0.0 for metric, _, _ in PER_LAYER}
    for span, metric in _SELF_TIME.items():
        if span in spans:
            m[metric] = spans[span]["self_s"]
    m["cli.self_s"] = sum(rec["self_s"] for name, rec in spans.items()
                          if name.startswith("cli."))
    for key in ("solver.sa_calls", "solver.spin_updates", "solver.configs_enumerated",
                "ising.couplings_calls", "ising.problems", "zoom.distance_calls",
                "zoom.candidates_pooled", "dataset.csv_bytes",
                "evaluate.uncertainty_runs", "cli.scan_points", "cli.scan_infeasible"):
        m[key] = counters[key]
    if m["solver.sa_s"] > 0:
        m["solver.spin_updates_per_s"] = counters["solver.spin_updates"] / m["solver.sa_s"]
    if counters["solver.reads"]:
        m["solver.ground_hit_frac"] = counters["solver.ground_hits"] / counters["solver.reads"]
        m["solver.distinct_states_mean"] = (counters["solver.distinct_states"]
                                            / counters["solver.results"])
    if counters["ising.pruned"]:
        m["ising.couplers_kept_mean"] = counters["ising.couplers_kept"] / counters["ising.pruned"]
        m["ising.spins_after_fix_mean"] = (counters["ising.spins_after_fix"]
                                           / counters["ising.pruned"])
    if m["dataset.generate_s"] > 0:
        m["dataset.events_per_s"] = counters["dataset.events_generated"] / m["dataset.generate_s"]
    m["cli.scan_parallel_eff"] = parallel_eff
    m["trace.overhead_frac"] = overhead_frac
    return m
