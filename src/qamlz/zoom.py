"""Iterative zoomed training loop.

Each iteration solves the effective Ising problem centred on the running
weight vector mu with search width sigma(t) = base**t, optionally randomizes
the returned spins to fight zoom-in overfitting, and updates
mu <- mu + s * sigma(t). The weights collected at the final iteration define
the strong classifier. The loop is fully deterministic for a fixed seed: all
randomness is drawn from streams keyed by (seed, iteration, candidate, gauge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError
from .features import FeaturePipeline
from .ising import (
    AugmentedClassifierSet,
    CouplingMatrices,
    IsingProblem,
    _check_layout,
    apply_gauge,
    build_couplings_from_signs,
    effective_problem,
    expand_solution,
    fix_variables,
    prune,
    random_gauge,
)
from .solver import (
    AnnealSchedule,
    ChainConfig,
    SolverResult,
    at_iteration,
    select_states,
    solve_chain_emulated,
    solve_exact,
    solve_external,
    solve_sa,
)

# rng purpose codes inside the (seed, purpose, ...) keys
_K_SOLVE, _K_GAUGE, _K_FLIP = 3, 4, 5
#: iterations of one training run: 128 times the default 8, each at least
#: one anneal or enumeration
_MAX_ITERATIONS = 1 << 10


def default_p_flip(iterations: int) -> tuple[float, ...]:
    """Halving per iteration from 0.16, applied to locally-worsening spins."""
    return tuple(0.16 * 2.0 ** -t for t in range(iterations))


@dataclass(frozen=True)
class ZoomConfig:
    """Training-loop settings. Flip schedules default to the halving series
    above; `p_flip` and `q_flip` are deliberately explicit configuration, and
    q must not exceed p anywhere (both may be zero). `external_timeout` bounds
    each external-solver call in seconds; None waits without limit."""

    iterations: int = 8
    base: float = 0.5
    delta: float = 0.025
    offset_range: int = 3
    p_flip: tuple[float, ...] | None = None
    q_flip: tuple[float, ...] | None = None
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    cutoff_pct: float = 0.0
    fixing: bool = False
    solver: str = "sa"
    chain: ChainConfig = field(default_factory=ChainConfig)
    external_command: tuple[str, ...] | None = None
    external_timeout: float | None = None
    lam: float = field(default=0.0, metadata={"key": "lambda"})
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.iterations > _MAX_ITERATIONS:
            raise ConfigError(f"iterations must be <= {_MAX_ITERATIONS}, got {self.iterations}")
        if not 0.0 < self.base < 1.0:
            raise ConfigError("zoom base must be in (0, 1)")
        if not self.base ** (self.iterations - 1) > 0:
            raise ConfigError(f"the last search width base ** (iterations - 1) must be > 0; "
                              f"{self.base} ** {self.iterations - 1} underflows to 0")
        if self.p_flip is None:
            object.__setattr__(self, "p_flip", default_p_flip(self.iterations))
        if self.q_flip is None:
            object.__setattr__(self, "q_flip", tuple(p / 4.0 for p in self.p_flip))
        for name in ("p_flip", "q_flip"):
            probs = getattr(self, name)
            if not probs or any(not 0.0 <= x < 1.0 for x in probs):
                raise ConfigError(f"{name} entries must lie in [0, 1)")
        for t in range(self.iterations):
            if at_iteration(self.q_flip, t) > at_iteration(self.p_flip, t):
                raise ConfigError("q_flip must not exceed p_flip")
        if self.solver not in ("exact", "sa", "chain", "external"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.solver == "external" and not self.external_command:
            raise ConfigError("solver 'external' needs an external_command")
        if self.external_timeout is not None and not 0.0 < self.external_timeout < math.inf:
            raise ConfigError("external_timeout must be a positive number of seconds or null")
        if not 0.0 <= self.cutoff_pct <= 100.0:
            raise ConfigError("cutoff_pct must be in [0, 100]")
        _check_layout(self.delta, self.offset_range)
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a non-negative 64-bit integer")

    def settings_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "base": self.base,
            "delta": self.delta,
            "offset_range": self.offset_range,
            "cutoff_pct": self.cutoff_pct,
            "fixing": self.fixing,
            "solver": self.solver,
            "lambda": self.lam,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class IterationRecord:
    t: int
    sigma: float
    train_distance: float
    test_distance: float
    n_candidates: int
    broken_chain_fraction: float


@dataclass(frozen=True)
class TrainedModel:
    """Final classifier weights plus everything needed to score new events:
    `mu` weighs the spins of `aug`, the augmented set that `delta` and
    `offset_range` lay out over the pipeline's weak classifiers."""

    mu: np.ndarray
    delta: float
    offset_range: int
    pipeline: FeaturePipeline
    trajectory: tuple[IterationRecord, ...] = ()
    settings: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.mu.shape != (self.aug.n_spins,):
            raise ConfigError(f"mu has shape {self.mu.shape}, the model has {self.aug.n_spins} spins")
        self.mu.setflags(write=False)

    @cached_property
    def aug(self) -> AugmentedClassifierSet:
        return AugmentedClassifierSet(self.pipeline.weak, self.delta, self.offset_range)


# ---------------------------------------------------------------------------
# Elementary steps
# ---------------------------------------------------------------------------


def zoom_update(mu: np.ndarray, spins: np.ndarray, sigma: float) -> np.ndarray:
    """mu_i <- mu_i + s_i * sigma, elementwise and exact."""
    mu = np.asarray(mu, dtype=np.float64)
    s = np.asarray(spins)
    if mu.shape != s.shape:
        raise ConfigError("mu and spin vector lengths differ")
    return mu + s * sigma


def flip_step(
    problem: IsingProblem,
    spins: np.ndarray,
    t: int,
    p_flip: float | Sequence[float],
    q_flip: float | Sequence[float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Two-stage spin randomization applied to a solver state.

    Stage 1 walks the spins in index order; whenever flipping spin i would
    lower the energy of `problem` (the unpruned iteration problem) at the
    current working state (the spin "worsens" the objective as returned), the
    flip is applied with probability p_flip(t). Stage 2 flips every spin
    independently with probability q_flip(t). Exactly one uniform per spin and
    stage is drawn, in index order, so the stream does not depend on the data.
    The uniforms are drawn before the walk, so stage 1 visits only the spins
    whose uniform is below p_flip(t): no other spin can flip, and each visited
    spin's energy change is computed from the same state as in a walk over
    every spin.
    """
    p = at_iteration(p_flip, t)
    q = at_iteration(q_flip, t)
    s = np.asarray(spins).astype(np.float64).copy()
    n = len(s)
    if problem.n_spins != n:
        raise ConfigError("shape mismatch between the problem and the spins")
    u_worsen = rng.random(n)
    candidates = np.flatnonzero(u_worsen < p)
    if len(candidates):
        h, j_sym = problem.h, problem.dense_couplers()
        for i in candidates:
            if -2.0 * s[i] * (h[i] + j_sym[i] @ s) < 0.0:
                s[i] = -s[i]
    u_uniform = rng.random(n)
    s[u_uniform < q] *= -1.0
    return s.astype(np.int8)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _solve_backend(reduced: IsingProblem, gauge: np.ndarray, cfg: ZoomConfig, t: int,
                   seed: tuple) -> SolverResult:
    """Solve `reduced` under `gauge`; the result is in `reduced`'s frame. SA
    and chain take the gauge through their start states. Exact and external
    solve the gauged problem, and its spins are mapped back."""
    if cfg.solver == "sa":
        return solve_sa(reduced, cfg.schedule, seed, gauge=gauge)
    if cfg.solver == "chain":
        cc = cfg.chain
        strength = at_iteration(cc.strength_schedule or (cc.strength,), t)
        cc = replace(cc, strength=strength, strength_schedule=None)
        return solve_chain_emulated(reduced, cc, cfg.schedule, seed=seed, gauge=gauge)
    gauged = apply_gauge(reduced, gauge)
    if cfg.solver == "exact":
        res = solve_exact(gauged)
    else:
        res = solve_external(gauged, cfg.external_command, timeout=cfg.external_timeout)
    return SolverResult(res.spins * gauge, res.energies, res.broken_chain_fraction)


def _window(d: float | None, best: float) -> float:
    """Energy window of a schedule entry d; None means 5% of |best|."""
    return 0.05 * abs(best) if d is None else d


def weighted_distance(
    signs: np.ndarray, tags: np.ndarray, weights: np.ndarray, mu: np.ndarray, n_var: int
) -> float:
    """Weighted mean squared residual between tags and the classifier output."""
    scores = signs @ (np.asarray(mu, dtype=np.float64) / n_var)
    r = np.asarray(tags, dtype=np.float64) - scores
    w = np.asarray(weights, dtype=np.float64)
    return float((w * r * r).sum() / w.sum())


@dataclass(frozen=True)
class TrainingProblem:
    """The data side of every Ising problem of a training run, built once by
    `prepare`: the augmented set, the train coupling sums, and the train and
    test sign matrices with their tags and weights. Runs that differ only in
    seed or solver settings share one problem; its arrays are read-only."""

    features: FeaturePipeline
    aug: AugmentedClassifierSet
    couplings: CouplingMatrices
    # float64 in signs_from_h's Fortran order, which astype keeps: the bits of
    # weighted_distance's matvec follow that layout, and a C-ordered copy would
    # change every train and test distance
    train_signs: np.ndarray
    test_signs: np.ndarray
    train_tags: np.ndarray
    train_weights: np.ndarray
    test_tags: np.ndarray
    test_weights: np.ndarray

    def __post_init__(self):
        for arr in (self.train_signs, self.test_signs, self.train_tags, self.train_weights,
                    self.test_tags, self.test_weights):
            arr.setflags(write=False)

    def train_distance(self, mu: np.ndarray) -> float:
        return weighted_distance(self.train_signs, self.train_tags, self.train_weights,
                                 mu, self.aug.n_var)

    def test_distance(self, mu: np.ndarray) -> float:
        return weighted_distance(self.test_signs, self.test_tags, self.test_weights,
                                 mu, self.aug.n_var)


def prepare(
    train: Dataset,
    test: Dataset,
    features: FeaturePipeline,
    delta: float,
    offset_range: int,
) -> TrainingProblem:
    """Transform both samples, take their sign matrices over the augmented set
    and sum the train couplings: everything of a training run but the zoom."""
    if train.schema != test.schema:
        raise ConfigError("train and test samples must share a schema")
    if len(train) == 0 or len(test) == 0:
        raise ConfigError("train and test samples must be non-empty")
    for name, d in (("train", train), ("test", test)):
        if not d.weights.sum() > 0.0:
            raise DataError(f"the {name} sample has zero total weight")
    aug = AugmentedClassifierSet(features.weak, delta, offset_range)
    signs_train = aug.signs_from_h(features.transform(train))
    signs_test = aug.signs_from_h(features.transform(test))
    cm = build_couplings_from_signs(signs_train, train.tags, train.weights, aug.n_var)
    return TrainingProblem(
        features=features, aug=aug, couplings=cm,
        train_signs=signs_train.astype(np.float64), test_signs=signs_test.astype(np.float64),
        train_tags=train.tags, train_weights=train.weights,
        test_tags=test.tags, test_weights=test.weights,
    )


def run_qamlz(problem: TrainingProblem, cfg: ZoomConfig) -> TrainedModel:
    """Train the zoomed annealing classifier on a prepared problem.

    Per iteration and per surviving candidate centre: build the effective
    problem, prune, optionally fix provably-optimal spins, solve under
    n_g(t) random gauges, randomize each selected state, and form the updated
    centres. Candidates are pooled across gauges, deduplicated, ranked by the
    weighted training distance, and capped at n_e(t) within the energy window.
    The test-sample distance is recorded for monitoring only. `cfg.delta` and
    `cfg.offset_range` must be the ones the problem was prepared with.
    """
    aug = problem.aug
    if (cfg.delta, cfg.offset_range) != (aug.delta, aug.offset_range):
        raise ConfigError(
            f"the problem was prepared with delta {aug.delta} and offset_range "
            f"{aug.offset_range}, the config has {cfg.delta} and {cfg.offset_range}")
    sched = cfg.schedule
    centres = [np.zeros(aug.n_spins)]  # surviving candidate centres, best first
    trajectory: list[IterationRecord] = []
    for t in range(cfg.iterations):
        sigma = cfg.base**t
        n_e, d = at_iteration(sched.n_e, t), at_iteration(sched.d, t)
        pooled: dict[bytes, np.ndarray] = {}
        broken: list[float] = []
        for ci, mu in enumerate(centres):
            full = effective_problem(problem.couplings, mu, sigma, lam=cfg.lam)
            pruned = prune(full, cfg.cutoff_pct)
            if cfg.fixing:
                fixed, reduced = fix_variables(pruned)
            else:
                fixed, reduced = np.zeros(pruned.n_spins, dtype=np.int8), pruned
            for k in range(at_iteration(sched.n_g, t)):
                if reduced.n_spins == 0:
                    states = [fixed]
                    broken.append(0.0)
                else:
                    gauge = random_gauge(
                        reduced.n_spins, np.random.default_rng((cfg.seed, _K_GAUGE, t, ci, k))
                    )
                    res = _solve_backend(reduced, gauge, cfg, t,
                                         seed=(cfg.seed, _K_SOLVE, t, ci, k))
                    broken.append(res.broken_chain_fraction)
                    states = [
                        expand_solution(fixed, s)
                        for s in select_states(res, n_e, _window(d, float(res.energies[0])))
                    ]
                for si, s_full in enumerate(states):
                    rng_flip = np.random.default_rng((cfg.seed, _K_FLIP, t, ci, k, si))
                    s_rand = flip_step(full, s_full, t, cfg.p_flip, cfg.q_flip, rng_flip)
                    mu_new = zoom_update(mu, s_rand, sigma)
                    pooled.setdefault(mu_new.tobytes(), mu_new)
        scored = sorted(
            ((problem.train_distance(mu_new), order, mu_new)
             for order, mu_new in enumerate(pooled.values())),
            key=lambda item: (item[0], item[1]),
        )
        best_d = scored[0][0]
        cutoff = best_d + _window(d, best_d)
        centres = [mu_new for dist, _, mu_new in scored if dist <= cutoff][:n_e]
        trajectory.append(
            IterationRecord(
                t=t,
                sigma=sigma,
                train_distance=best_d,
                test_distance=problem.test_distance(centres[0]),
                n_candidates=len(centres),
                broken_chain_fraction=float(np.mean(broken)) if broken else 0.0,
            )
        )
    return TrainedModel(
        mu=centres[0],
        delta=aug.delta,
        offset_range=aug.offset_range,
        pipeline=problem.features,
        trajectory=tuple(trajectory),
        settings=cfg.settings_dict(),
    )
