"""Strong-classifier scoring and significance-based evaluation.

The selection metric is an expected-significance figure of merit that folds a
relative background systematic f into sigma_B = f*B; classifiers are compared
through the maximum of that figure over a cut scan on their output. Repeated
trainings differing only in seed quantify the run-to-run spread, and a
two-sample KS test per process guards against overtraining.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._kstest import ks_2samp
from .dataset import Dataset
from .errors import ConfigError, DataError
from .features import FeaturePipeline
from .ising import AugmentedClassifierSet
from .zoom import TrainedModel, TrainingProblem, ZoomConfig, run_qamlz

#: cuts of one FOM scan: each is one figure-of-merit call in Python, about
#: 2 us, so a scan of 5000 events per class at the bound takes 0.14 s
_MAX_GRID_POINTS = 1 << 16

#: Published maximal figures of merit of the derived-variable ranking,
#: recorded as reference metadata only (they depend on the original search
#: samples and are not reproduced on synthetic data).
REFERENCE_DERIVED_FOM: dict[str, float] = {
    "pt_lep_over_met": 0.35,
    "pt_lep_over_pt_jet1": 0.22,
    "discb_shift_times_pt_b": 0.20,
    "met_mt_window": 0.20,
    "met_ht_window": 0.18,
    "dr_lb_minus_mt_scaled": 0.12,
    "ht_sq_over_n_jets": 0.09,
    "pt_lep_plus_eta_sq": 0.08,
    "pt_lep_over_ht": 0.03,
}

#: Best published figure of merit of the reference boosted-decision-tree
#: selection, kept as a comparison constant.
REFERENCE_BDT_FOM = (1.44, 0.06)


@dataclass(frozen=True)
class FomParams:
    """The config's `fom` section: f is the relative background systematic; a cut
    scan has `grid_points` cuts, valid where each class keeps >= `min_counts` events."""

    f: float = 0.20
    min_counts: int = 20
    grid_points: int = 201

    def __post_init__(self):
        if not 0.0 <= self.f < math.inf:
            raise ConfigError(
                f"relative background uncertainty f must be finite and >= 0, got {self.f}"
            )
        if self.grid_points < 2:
            raise ConfigError(f"fom.grid_points must be >= 2, got {self.grid_points}")
        if self.grid_points > _MAX_GRID_POINTS:
            raise ConfigError(
                f"fom.grid_points must be <= {_MAX_GRID_POINTS}, got {self.grid_points}"
            )
        if self.min_counts < 0:
            raise ConfigError(f"fom.min_counts must be >= 0, got {self.min_counts}")


def asimov_significance(s: float, b: float) -> float:
    """Systematics-free limit sqrt(2((S+B)ln(1+S/B) - S))."""
    if b <= 0:
        raise ConfigError("background yield must be positive")
    if s < 0:
        raise ConfigError("signal yield must be non-negative")
    if s == 0:
        return 0.0
    return math.sqrt(2.0 * ((s + b) * math.log1p(s / b) - s))


def fom(s: float, b: float, params: FomParams | float = FomParams()) -> float:
    """Expected-significance figure of merit with background systematic f*B.

    The f -> 0 limit, and any value the formula cannot hold in floats, is
    returned analytically (`_fom_scaled`). A numerically negative radicand
    (possible only through cancellation) is clamped to 0 with a warning.
    """
    if not isinstance(params, FomParams):
        params = FomParams(f=float(params))
    f = params.f
    if b <= 0:
        raise ConfigError("background yield must be positive")
    if s < 0:
        raise ConfigError("signal yield must be non-negative")
    if s == 0:
        return 0.0
    try:
        s2 = (f * b) ** 2
        t1 = (s + b) * math.log((s + b) * (b + s2) / (b * b + (s + b) * s2))
        t2 = (b * b / s2) * math.log1p(s2 * s / (b * (b + s2)))
        radicand = 2.0 * (t1 - t2)
    except (OverflowError, ZeroDivisionError):
        radicand = math.nan
    if not math.isfinite(radicand):
        return _fom_scaled(s, b, f)
    if radicand < 0:
        warnings.warn("negative figure-of-merit radicand clamped to 0", RuntimeWarning)
        return 0.0
    return math.sqrt(radicand)


def _fom_scaled(s: float, b: float, f: float) -> float:
    """`fom` from x = S/B and r = f^2 B, for inputs whose formula leaves the float
    range: Z^2 = 2B((1+x) ln(1 + x/(1 + (1+x)r)) - ln(1 + rx/(1+r))/r). Beyond
    r = 1e-30 or 1e30 the O(r) or O(1/r) rest is below rounding: Z is then the
    Asimov limit or sqrt(2B(S - B ln(1+S/B)))/(fB). Cancellation below 0 gives 0."""
    x, r = s / b, f * b * f
    if r < 1e-30:
        return asimov_significance(s, b)
    if r > 1e30:
        return math.sqrt(2.0 * (x - math.log1p(x))) / f
    g = (1 + x) * math.log1p(x / (1 + (1 + x) * r)) - math.log1p(r * x / (1 + r)) / r
    return math.sqrt(2.0 * max(g, 0.0)) * math.sqrt(b)


def _fom_or_limit(s: float, b: float, params: FomParams) -> float:
    """Curve value allowing the zero-background edge: +inf when only signal survives."""
    if s == 0.0:
        return 0.0
    if b <= 0.0:
        return math.inf
    return fom(s, b, params)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def score_events(model: TrainedModel, d: Dataset) -> np.ndarray:
    """Strong-classifier output for every event in the dataset."""
    return model_scores(event_signs(model.pipeline, model.aug, d), model)


def event_signs(pipeline: FeaturePipeline, aug: AugmentedClassifierSet,
                d: Dataset) -> np.ndarray:
    """The int8 sign matrix of `d` over the augmented set. The models of one
    prepared problem share a pipeline and augmented set, so they share this
    matrix, and each then costs one matvec in `model_scores`."""
    return aug.signs_from_h(pipeline.transform(d))


def model_scores(signs: np.ndarray, model: TrainedModel) -> np.ndarray:
    """`score_events` of `model` from the `event_signs` of its pipeline and
    augmented set."""
    # a matvec's bits follow the float64 operand's layout, not the dtype: the
    # int8 product rounds as a C-ordered float64 one does, while astype(float64)
    # would keep signs_from_h's Fortran order and change the scores' bits
    return signs @ (model.mu / model.aug.n_var)


# ---------------------------------------------------------------------------
# Cut scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FomCurve:
    """Figure of merit versus lower cut on the classifier output.

    Events strictly above the cut are kept. Cuts whose surviving unweighted
    counts fall below the validity floor are flagged invalid and excluded from
    the maximum; `best_cut` is None when no cut is valid.
    """

    cuts: np.ndarray
    fom_values: np.ndarray
    s_yields: np.ndarray
    b_yields: np.ndarray
    n_signal: np.ndarray
    n_background: np.ndarray
    valid: np.ndarray
    best_cut: float | None
    best_fom: float
    s_at_best: float
    b_at_best: float

    def __post_init__(self):
        for name in ("cuts", "fom_values", "s_yields", "b_yields",
                     "n_signal", "n_background", "valid"):
            getattr(self, name).setflags(write=False)

    @property
    def no_valid_cut(self) -> bool:
        return self.best_cut is None


def fom_scan(
    signal_scores: np.ndarray,
    signal_weights: np.ndarray,
    background_scores: np.ndarray,
    background_weights: np.ndarray,
    params: FomParams = FomParams(),
    grid: np.ndarray | None = None,
) -> FomCurve:
    """Scan the figure of merit over cuts on a score.

    The default grid is `params.grid_points` even steps across the pooled score
    range. S(c) and B(c) are the weighted yields with score > c; cuts keeping
    fewer than `params.min_counts` raw events in either class are invalid.
    """
    ss = np.asarray(signal_scores, dtype=np.float64)
    bs = np.asarray(background_scores, dtype=np.float64)
    sw = np.asarray(signal_weights, dtype=np.float64)
    bw = np.asarray(background_weights, dtype=np.float64)
    if len(ss) == 0 or len(bs) == 0:
        raise DataError("both signal and background samples must be non-empty")
    if grid is None:
        lo = float(min(ss.min(), bs.min()))
        hi = float(max(ss.max(), bs.max()))
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        grid = np.linspace(lo, hi, params.grid_points)
    else:
        grid = np.sort(np.asarray(grid, dtype=np.float64))

    def survivors(scores, weights, cuts):
        order = np.argsort(scores, kind="stable")
        sorted_scores = scores[order]
        tail_w = np.concatenate([np.cumsum(weights[order][::-1])[::-1], [0.0]])
        pos = np.searchsorted(sorted_scores, cuts, side="right")
        return tail_w[pos], len(scores) - pos

    s_yields, n_sig = survivors(ss, sw, grid)
    b_yields, n_bkg = survivors(bs, bw, grid)
    values = np.array(
        [_fom_or_limit(s, b, params) for s, b in zip(s_yields, b_yields)]
    )
    valid = (n_sig >= params.min_counts) & (n_bkg >= params.min_counts)
    if valid.any():
        vi = np.flatnonzero(valid)
        best_i = vi[int(np.argmax(values[vi]))]
        best_cut = float(grid[best_i])
        best_fom = float(values[best_i])
        s_best, b_best = float(s_yields[best_i]), float(b_yields[best_i])
    else:
        best_cut, best_fom, s_best, b_best = None, math.nan, 0.0, 0.0
    return FomCurve(
        cuts=grid, fom_values=values, s_yields=s_yields, b_yields=b_yields,
        n_signal=n_sig.astype(np.int64), n_background=n_bkg.astype(np.int64),
        valid=valid, best_cut=best_cut, best_fom=best_fom,
        s_at_best=s_best, b_at_best=b_best,
    )


def fom_scan_dataset(
    model: TrainedModel,
    d: Dataset,
    params: FomParams = FomParams(),
) -> FomCurve:
    """Score a dataset with the model and scan the tags' weighted yields.
    Each class must hold a positive total weight."""
    sig = _signal_mask(d)
    scores = score_events(model, d)
    return fom_scan(scores[sig], d.weights[sig], scores[~sig], d.weights[~sig], params)


def _signal_mask(d: Dataset) -> np.ndarray:
    """`d.tags == 1`, once both classes are checked to hold events and weight."""
    sig = d.tags == 1
    if not sig.any() or sig.all():
        raise DataError("dataset must contain both signal and background events")
    for name, mask in (("signal", sig), ("background", ~sig)):
        if not d.weights[mask].any():
            raise DataError(f"the {name} events have zero total weight")
    return sig


# ---------------------------------------------------------------------------
# Run-to-run uncertainty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintyReport:
    max_foms: tuple[float, ...]
    mean: float
    std: float

    @classmethod
    def from_foms(cls, foms: Sequence[float]) -> "UncertaintyReport":
        arr = np.asarray(foms, dtype=np.float64)
        return cls(max_foms=tuple(float(v) for v in arr),
                   mean=float(arr.mean()), std=float(arr.std(ddof=1)))


def run_uncertainty(
    cfg: ZoomConfig,
    problem: TrainingProblem,
    assess: Dataset,
    assess_signs: np.ndarray,
    n_runs: int = 10,
    params: FomParams = FomParams(),
) -> UncertaintyReport:
    """Train `n_runs` models on the prepared `problem`, differing only in
    seed, and report the sample mean and standard deviation of their maximal
    figures of merit on the `assess` sample, scored from its `event_signs`
    over the problem's pipeline and augmented set. The problem and the signs
    depend only on (delta, offset_range), so a scan builds them once per
    layout and hands them to every grid point of it."""
    if n_runs < 2:
        raise ConfigError("n_runs must be >= 2 for a defined standard deviation")
    if assess_signs.shape != (len(assess), problem.aug.n_spins):
        raise ConfigError(f"assess_signs must have shape {(len(assess), problem.aug.n_spins)}, "
                          f"one row per assess event, got {assess_signs.shape}")
    sig = _signal_mask(assess)
    foms = []
    for k in range(n_runs):
        scores = model_scores(assess_signs,
                              run_qamlz(problem, dataclasses.replace(cfg, seed=cfg.seed + k)))
        curve = fom_scan(scores[sig], assess.weights[sig], scores[~sig], assess.weights[~sig],
                         params)
        if curve.no_valid_cut:
            raise DataError("no valid cut on the assess sample; lower min_counts")
        foms.append(curve.best_fom)
    return UncertaintyReport.from_foms(foms)


# ---------------------------------------------------------------------------
# Overtraining check
# ---------------------------------------------------------------------------


def overtraining_check(
    train_scores: Mapping[str, np.ndarray],
    test_scores: Mapping[str, np.ndarray],
) -> dict[str, tuple[float, float]]:
    """Two-sample KS statistic and asymptotic p-value per class.

    Classes are compared wherever both samples are non-empty, except a class
    with a single event on each side: its effective size m*n/(m+n) = 0.5
    rounds to 0 and leaves the p-value undefined. A statistic near 0 with a
    large p-value means the classifier responds alike to events it was and
    was not trained on. The test is `qamlz._kstest.ks_2samp`, a numpy
    implementation of the asymptotic two-sample test; its module docstring
    lists how the p-value is computed.
    """
    out: dict[str, tuple[float, float]] = {}
    for name in train_scores:
        a = np.asarray(train_scores[name], dtype=np.float64)
        b = np.asarray(test_scores.get(name, ()), dtype=np.float64)
        if len(a) == 0 or len(b) == 0 or len(a) == len(b) == 1:
            continue
        out[name] = ks_2samp(a, b)
    return out


def scores_by_process(model: TrainedModel, d: Dataset) -> dict[str, np.ndarray]:
    scores = score_events(model, d)
    procs = d.processes.astype(str)
    return {name: scores[procs == name] for name in np.unique(procs)}


# ---------------------------------------------------------------------------
# Raw-variable ranking
# ---------------------------------------------------------------------------


def rank_variables(
    d: Dataset,
    variables: Sequence[str],
    params: FomParams = FomParams(),
) -> list[tuple[str, float]]:
    """Rank variables by the best figure of merit a one-sided cut achieves.

    Both cut orientations are tried (a raw variable may prefer either tail)
    and the better one kept; the result is sorted by descending maximum.
    """
    sig = d.tags == 1
    if not sig.any() or sig.all():
        raise DataError("dataset must contain both signal and background events")
    ranked = []
    for name in variables:
        v = d.column(name)
        best = -math.inf
        for direction in (1.0, -1.0):
            curve = fom_scan(direction * v[sig], d.weights[sig],
                             direction * v[~sig], d.weights[~sig], params)
            if not curve.no_valid_cut and curve.best_fom > best:
                best = curve.best_fom
        ranked.append((name, best))
    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    return ranked
