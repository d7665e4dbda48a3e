"""Shared test helpers: independent oracles and random-instance builders."""

from __future__ import annotations

import csv
import io
import itertools
import math
import shutil

import numpy as np
import pytest

from qamlz import Dataset, GeneratorSpec, IsingProblem, _sweep
from qamlz.errors import ConfigError, DataError
from qamlz.features import (
    DERIVED_PRESETS,
    FeaturePipeline,
    apply_pca,
    fit_pca,
    weak_fit,
)
from qamlz.ising import energies_batch
from qamlz.solver import at_iteration


def make_problem(h, couplers: dict) -> IsingProblem:
    """Problem from fields and a {(i, j): value} coupler mapping with i < j."""
    keys = sorted(couplers)
    return IsingProblem(h=np.asarray(h, dtype=np.float64), pairs=np.array(keys, dtype=np.int64),
                        values=np.array([couplers[k] for k in keys], dtype=np.float64))


def coupler_dict(problem: IsingProblem) -> dict:
    """{(i, j): value} of a problem's couplers, read from its wire format."""
    return {(a, b): v for a, b, v in problem.to_dict()["J"]}


def random_problem(rng: np.random.Generator, n: int, coupler_density: float = 1.0,
                   scale: float = 1.0) -> IsingProblem:
    """Random fields and couplers, uniform in [-scale, scale]."""
    h = rng.uniform(-scale, scale, size=n)
    j = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < coupler_density:
                j[(a, b)] = float(rng.uniform(-scale, scale))
    return make_problem(h, j)


def brute_force_energy(problem: IsingProblem, spins) -> float:
    """Independent scalar evaluation of sum h_i s_i + sum_{i<j} J_ij s_i s_j."""
    total = 0.0
    for i in range(problem.n_spins):
        total += float(problem.h[i]) * spins[i]
    for (a, b), v in coupler_dict(problem).items():
        total += v * spins[a] * spins[b]
    return total


def brute_force_ground_states(problem: IsingProblem, tol: float = 1e-9):
    """All minimizing configurations, by exhaustive itertools enumeration."""
    best = None
    states = []
    for cfg in itertools.product((-1, 1), repeat=problem.n_spins):
        e = brute_force_energy(problem, cfg)
        if best is None or e < best - tol:
            best, states = e, [cfg]
        elif abs(e - best) <= tol:
            states.append(cfg)
    return best, states


# ---------------------------------------------------------------------------
# Dict-loop references: the coupler-mapping implementations the array-backed
# problem replaced, kept to pin the array code bit for bit
# ---------------------------------------------------------------------------


def reference_prune(problem: IsingProblem, cutoff_pct: float) -> list:
    """Kept couplers as [i, j, value] rows in (i, j) order."""
    j = coupler_dict(problem)
    keep = math.ceil((1.0 - cutoff_pct / 100.0) * len(j))
    ranked = sorted(j.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return [[a, b, v] for (a, b), v in sorted(ranked[:keep])]


def reference_apply_gauge(problem: IsingProblem, gauge) -> tuple[list, list]:
    """Gauged fields and [i, j, value] coupler rows."""
    gf = np.asarray(gauge).astype(np.float64)
    h = problem.h * gf
    j = [[a, b, float(v * gf[a] * gf[b])] for (a, b), v in coupler_dict(problem).items()]
    return [float(v) for v in h], j


def reference_fix_variables(problem: IsingProblem) -> tuple[np.ndarray, list, list]:
    """The int8 fixing vector (each fixed spin's value, 0 where free),
    reduced fields and reduced coupler rows."""
    n = problem.n_spins
    couplers = coupler_dict(problem)
    h = problem.h.astype(np.float64).copy()
    adj: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    for (a, b), v in couplers.items():
        adj[a][b] = v
        adj[b][a] = v
    alive = set(range(n))
    fixed = np.zeros(n, dtype=np.int8)
    frontier = set(alive)
    while frontier:
        next_frontier = set()
        for i in sorted(frontier):
            if i not in alive:
                continue
            strength = sum(abs(v) for v in adj[i].values())
            if abs(h[i]) > strength:
                s = -1 if h[i] >= 0 else 1
                fixed[i] = s
                alive.discard(i)
                for nb, v in adj[i].items():
                    h[nb] += v * s
                    del adj[nb][i]
                    next_frontier.add(nb)
                adj[i] = {}
        frontier = next_frontier
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    j = [[remap[a], remap[b], v] for (a, b), v in couplers.items()
         if a in alive and b in alive]
    return fixed, [float(v) for v in h[keep]], j


def reference_energies(problem: IsingProblem, spins) -> np.ndarray:
    """Batch energies with the coupler keys sorted on every call."""
    couplers = coupler_dict(problem)
    s = np.asarray(spins, dtype=np.float64)
    e = s @ problem.h
    if couplers:
        keys = np.array(sorted(couplers), dtype=np.int64)
        vals = np.array([couplers[(a, b)] for a, b in map(tuple, keys)])
        e = e + (s[:, keys[:, 0]] * s[:, keys[:, 1]]) @ vals
    return e


def reference_t_hot(sched, problem: IsingProblem) -> float:
    """Hot end of the annealing ladder from per-spin |J| row sums."""
    if sched.t_hot is not None:
        return sched.t_hot
    scale = float(np.abs(problem.h).max(initial=0.0))
    row = np.zeros(problem.n_spins)
    for (a, b), v in coupler_dict(problem).items():
        row[a] += abs(v)
        row[b] += abs(v)
    scale = float(max(scale, (np.abs(problem.h) + row).max(initial=0.0)))
    hot = 2.0 * scale if scale > 0 else 1.0
    return max(hot, sched.t_cold * 10.0)


# ---------------------------------------------------------------------------
# Per-problem steps of the zoom loop as they were before their fast paths,
# kept to pin the stable-sort neighbour rows and the candidate-only flip walk
# ---------------------------------------------------------------------------


def reference_neighbours(problem: IsingProblem) -> tuple:
    """(start, nb, vals) compressed sparse rows from a two-key lexsort and a
    searchsorted over the spins."""
    i, j = problem.pairs.T
    spin, nb = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((nb, spin))
    start = np.searchsorted(spin[order], np.arange(problem.n_spins + 1))
    return start, nb[order], np.concatenate([problem.values, problem.values])[order]


def reference_flip_step(problem: IsingProblem, spins, t: int, p_flip, q_flip,
                        rng: np.random.Generator) -> np.ndarray:
    """The spin randomization with stage 1 walking every spin."""
    p = at_iteration(p_flip, t)
    q = at_iteration(q_flip, t)
    s = np.asarray(spins).astype(np.float64).copy()
    n = len(s)
    if problem.n_spins != n:
        raise ConfigError("shape mismatch between the problem and the spins")
    h, j_sym = problem.h, problem.dense_couplers()
    u_worsen = rng.random(n)
    for i in range(n):
        delta_flip = -2.0 * s[i] * (h[i] + j_sym[i] @ s)
        if delta_flip < 0.0 and u_worsen[i] < p:
            s[i] = -s[i]
    u_uniform = rng.random(n)
    s[u_uniform < q] *= -1.0
    return s.astype(np.int8)


# ---------------------------------------------------------------------------
# Chunked enumeration: the exact solver that split-half enumeration replaced,
# kept to pin `solve_exact` byte for byte
# ---------------------------------------------------------------------------


def reference_solve_exact(problem: IsingProblem, keep: int, chunk: int) -> tuple:
    """(spins, energies) of the `keep` lowest configurations, scored by
    `energies_batch` in index-order blocks of `chunk` and merged by a stable
    sort."""
    n = problem.n_spins
    total = 1 << n
    keep = min(keep, total)
    bits = np.arange(n, dtype=np.uint32)
    best_e = np.empty(0)
    best_idx = np.empty(0, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        spins = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(np.int8)
        e = energies_batch(problem, spins)
        cat_e = np.concatenate([best_e, e])
        cat_i = np.concatenate([best_idx, idx])
        # equal energies sit in index order in cat_e (the kept states, sorted,
        # then this block), so a stable sort breaks ties by index; only states
        # no worse than the keep-th lowest energy need sorting
        part = np.arange(len(cat_e))
        if len(cat_e) > keep:
            part = np.flatnonzero(cat_e <= np.partition(cat_e, keep - 1)[keep - 1])
        part = part[np.argsort(cat_e[part], kind="stable")][:keep]
        best_e, best_idx = cat_e[part], cat_i[part]
    spins = (((best_idx[:, None] >> bits) & 1) * 2 - 1).astype(np.int8)
    return spins, best_e


# ---------------------------------------------------------------------------
# Per-event generation loop: the scalar implementation that chunked
# generation replaced, kept to pin the chunked code bit for bit
# ---------------------------------------------------------------------------

_MAX_TRUNCATION_TRIES = 100


def stream_states(words: np.ndarray) -> list[dict]:
    """Stream words (state hi, state lo, inc hi, inc lo) in the form of
    numpy's `bit_generator.state`."""
    return [{"bit_generator": "PCG64", "state": {"state": s_hi << 64 | s_lo, "inc": q_hi << 64 | q_lo},
             "has_uint32": 0, "uinteger": 0}
            for s_hi, s_lo, q_hi, q_lo in words.tolist()]


def compiled_stream_states(seed: int, start: int, stop: int) -> list[dict]:
    """The PCG64 states that the compiled `_sweep.STREAMS` seeds for the keys
    (seed, i), i in [start, stop). Skips the test where there is no C
    compiler."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert _sweep.STREAMS is not _sweep.NumpyStreams, "cc is on PATH but the streams did not load"
    return stream_states(_sweep.STREAMS(seed, start, stop).words)


def _reference_attempt(mean: list, fac: list, z: list) -> np.ndarray:
    """x_i = mean_i + (fac_i0 z_0 + fac_i1 z_1 + ...), summed in j order from
    the first product, one rounding per operation (Python floats)."""
    x = []
    for m, row in zip(mean, fac):
        s = row[0] * z[0]
        for f, zj in zip(row[1:], z[1:]):
            s += f * zj
        x.append(m + s)
    return np.array(x, dtype=np.float64)


def reference_generate_synthetic(spec: GeneratorSpec, n_events: int, seed: int) -> Dataset:
    """Draw `n_events` events; deterministic and schedule-independent for a fixed seed.

    Class and process are sampled per event; per-class weights are set after
    the fact so signal weights sum to s_tot and background weights to b_tot.
    Each attempt's value is `_reference_attempt`'s.
    """
    if n_events <= 0:
        raise ConfigError("n_events must be positive")
    names = list(spec.processes)
    means = {n: [float(m) for m in pm.mean] for n, pm in spec.processes.items()}
    factors = {n: pm.factor().tolist() for n, pm in spec.processes.items()}
    bg_names = [n for n in names if n != "signal"]
    bg_cum = np.cumsum([spec.background_fractions.get(n, 0.0) for n in bg_names])
    bounded = [
        (spec.schema.index(v), lo if lo is not None else -np.inf, hi if hi is not None else np.inf)
        for v, (lo, hi) in spec.bounds.items()
    ]
    int_idx = [spec.schema.index(v) for v in spec.integer_variables]
    k = len(spec.schema)

    values = np.empty((n_events, k), dtype=np.float64)
    tags = np.empty(n_events, dtype=np.int8)
    processes = []
    for i in range(n_events):
        rng = np.random.default_rng((seed, i))
        if rng.random() < spec.signal_fraction:
            proc = "signal"
            tags[i] = 1
        else:
            proc = bg_names[int(np.searchsorted(bg_cum, rng.random(), side="right"))]
            tags[i] = -1
        mean, fac = means[proc], factors[proc]
        x = _reference_attempt(mean, fac, rng.standard_normal(k).tolist())
        for _ in range(_MAX_TRUNCATION_TRIES):
            if all(lo <= x[j] <= hi for j, lo, hi in bounded):
                break
            x = _reference_attempt(mean, fac, rng.standard_normal(k).tolist())
        for j, lo, hi in bounded:
            x[j] = min(max(x[j], lo), hi)
        for j in int_idx:
            x[j] = np.rint(x[j])
        for j, lo, hi in bounded:  # rounding may step outside a tight bound
            x[j] = min(max(x[j], lo), hi)
        values[i] = x
        processes.append(proc)

    n_sig = int((tags == 1).sum())
    n_bg = n_events - n_sig
    if n_sig == 0 or n_bg == 0:
        raise DataError(
            f"generated sample has an empty class (signal={n_sig}, background={n_bg}); "
            "increase n_events"
        )
    weights = np.where(tags == 1, spec.s_tot / n_sig, spec.b_tot / n_bg)
    return Dataset(spec.schema, values, tags, weights, processes)


# ---------------------------------------------------------------------------
# CSV writer loop: the per-row `csv.writer` text `Dataset.to_csv` reproduces
# ---------------------------------------------------------------------------


def reference_to_csv(d: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("tag", "weight", "process") + d.schema)
    for i in range(len(d)):
        writer.writerow([int(d.tags[i]), repr(float(d.weights[i])), str(d.processes[i])]
                        + [repr(float(v)) for v in d.values[i]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Derived columns through a second Dataset: the feature path that
# `feature_matrix` replaced, kept to pin it and the pipeline bit for bit
# ---------------------------------------------------------------------------


def reference_with_columns(d: Dataset, names, columns) -> Dataset:
    """Extend the schema with new columns (shape (n, len(names)))."""
    columns = np.asarray(columns, dtype=np.float64)
    if columns.shape != (len(d), len(names)):
        raise DataError("new column block has wrong shape")
    return Dataset(d.schema + tuple(names), np.hstack([d.values, columns]),
                   d.tags, d.weights, d.processes)


def reference_compute_derived(d: Dataset, formulas) -> Dataset:
    """Extend the dataset schema with derived columns, one per formula."""
    resolved = []
    for f in formulas:
        if isinstance(f, str):
            if f not in DERIVED_PRESETS:
                raise ConfigError(f"unknown derived preset {f!r}")
            f = DERIVED_PRESETS[f]
        resolved.append(f)
    if not resolved:
        return d
    cols = np.empty((len(d), len(resolved)))
    for j, f in enumerate(resolved):
        a, b = f.inputs
        cols[:, j] = f.fn(np.asarray(d.column(a), dtype=np.float64),
                          np.asarray(d.column(b), dtype=np.float64))
    return reference_with_columns(d, [f.name for f in resolved], cols)


def reference_feature_matrix(d: Dataset, variables, derived) -> np.ndarray:
    """`derived` presets the schema lacks are computed into a second Dataset,
    whose `matrix` gives the features."""
    needed = [f for f in derived if f not in d.schema]
    if needed:
        d = reference_compute_derived(d, needed)
    return d.matrix(variables)


def reference_fit_feature_pipeline(train: Dataset, variables, derived=(), weak_mode="density",
                                   n_bins=50, use_pca=False) -> FeaturePipeline:
    needed = [f for f in derived if f not in train.schema]
    fitted_train = reference_compute_derived(train, needed) if needed else train
    x = fitted_train.matrix(variables)
    pca = fit_pca(x) if use_pca else None
    if pca is not None:
        x = apply_pca(pca, x)
        names = tuple(f"pc_{k:02d}" for k in range(x.shape[1]))
    else:
        names = tuple(variables)
    feat = Dataset(names, x, fitted_train.tags, fitted_train.weights, fitted_train.processes)
    weak = weak_fit(feat, n_bins=n_bins, variables=names, mode=weak_mode)
    return FeaturePipeline(variables=tuple(variables), derived=tuple(derived), pca=pca, weak=weak)


def reference_transform(pipe: FeaturePipeline, d: Dataset) -> np.ndarray:
    x = reference_feature_matrix(d, pipe.variables, pipe.derived)
    if pipe.pca is not None:
        x = apply_pca(pipe.pca, x)
    return pipe.weak.evaluate_matrix(x)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
