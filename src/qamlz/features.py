"""Variable transforms feeding the annealing classifier.

Two weak-classifier flavours are supported: a plain affine normalization to
[-1, 1] and a density-ratio transform that rescales each variable by the
per-bin weighted signal/background contrast, so each output retains the
discriminating shape of its input. Derived two-variable combinations and an
optional PCA rotation complete the feature pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import BASE_VARIABLES, Dataset
from .errors import ConfigError, DataError

#: denominator magnitudes below this yield 0 instead of dividing
DIVISION_GUARD = 1e-9

#: the weak-classifier modes, described on `WeakClassifierSet`
WEAK_MODES = ("normalized", "density")


# ---------------------------------------------------------------------------
# Weak classifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakClassifierSet:
    """Per-variable transforms h_i with |h_i(x)| <= 1.

    mode "normalized": affine map of the training range onto [-1, 1], clamped.
    mode "density": the normalized value is looked up in a binned response
    (p_sig - p_bkg) / (p_sig + p_bkg) built from weighted training densities.
    Bins are half-open [lo, hi) with the last bin closed; a value on a shared
    edge belongs to the bin opening at that edge.
    """

    mode: str
    var_names: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    edges: np.ndarray | None = None
    responses: np.ndarray | None = None
    constant_variables: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in WEAK_MODES:
            raise ConfigError(f"unknown weak-classifier mode {self.mode!r}")
        for arr in ("lo", "hi", "edges", "responses"):
            a = getattr(self, arr)
            if a is not None:
                a.setflags(write=False)
        n = self.n_classifiers
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ConfigError(f"lo and hi must have shape ({n},), one entry per variable, "
                              f"got {self.lo.shape} and {self.hi.shape}")
        if self.mode == "density":
            if self.edges is None or self.responses is None:
                raise ConfigError("density mode requires edges and responses")
            if self.edges.ndim != 1 or len(self.edges) < 2:
                raise ConfigError(f"bin edges must be a list of at least 2 numbers, "
                                  f"got shape {self.edges.shape}")
            if self.responses.shape != (n, len(self.edges) - 1):
                raise ConfigError(f"bin responses must have shape ({n}, {len(self.edges) - 1}), "
                                  f"one per bin of every variable, got {self.responses.shape}")
            if not (np.diff(self.edges) > 0).all():
                raise ConfigError("bin edges must be strictly increasing")
            if np.abs(self.responses).max(initial=0.0) > 1.0 + 1e-12:
                raise ConfigError("bin responses must lie in [-1, 1]")

    @property
    def n_classifiers(self) -> int:
        return len(self.var_names)

    def evaluate_matrix(self, x: np.ndarray) -> np.ndarray:
        """h values for a (n_events, n_var) raw-value matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_classifiers:
            raise DataError(f"expected (n, {self.n_classifiers}) matrix, got {x.shape}")
        z = _normalize(x, self.lo, self.hi)
        if self.mode == "normalized":
            return z
        return self.responses[np.arange(self.n_classifiers)[None, :], _bin_index(z, self.edges)]


def _normalize(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each column of `x` mapped from [lo, hi] onto [-1, 1] and clipped; 0 where hi == lo."""
    # Halving every term keeps the bits of 2 (x - lo) / (hi - lo) - 1 unless a
    # term overflows or becomes subnormal, and no finite difference overflows;
    # a quotient that overflows far outside the range is saturated by the clip.
    span = hi * 0.5 - lo * 0.5
    with np.errstate(all="ignore"):
        scaled = np.where(span > 0, (x * 0.5 - lo * 0.5) / span * 2.0 - 1.0, 0.0)
    return np.clip(scaled, -1.0, 1.0)


def _bin_index(z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each normalized value: [e_b, e_b+1), with the last bin closed."""
    return np.clip(np.searchsorted(edges, z, side="right") - 1, 0, len(edges) - 2)


def weak_fit(
    train: Dataset,
    n_bins: int = 50,
    variables: Sequence[str] | None = None,
    *,
    mode: str = "density",
) -> WeakClassifierSet:
    """Weak classifiers of `mode`, one of `WEAK_MODES` (see `WeakClassifierSet`),
    fitted on the training sample. In mode "density" each class's weights are
    summed per bin in event order, and empty bins respond 0.
    """
    if len(train) == 0:
        raise DataError("cannot fit on an empty dataset")
    variables = tuple(variables if variables is not None else train.schema)
    x = train.matrix(variables)
    lo, hi = x.min(axis=0), x.max(axis=0)
    constant = tuple(v for v, l, h in zip(variables, lo, hi) if l == h)
    edges = responses = None
    if mode == "density":
        if n_bins < 2:
            raise ConfigError("n_bins must be >= 2")
        sig = train.tags == 1
        if not sig.any() or sig.all():
            raise DataError("density-ratio fit needs both signal and background events")
        k = len(variables)
        edges = np.linspace(-1.0, 1.0, n_bins + 1)
        # the (class, variable, bin) cell of each event's value of each variable
        cells = (_bin_index(_normalize(x, lo, hi), edges) + n_bins * np.arange(k)
                 + k * n_bins * ~sig[:, None])
        sums = np.bincount(cells.ravel(), train.weights.repeat(k), 2 * k * n_bins)
        sums = sums.reshape(2, k, n_bins)
        total = sums.sum(axis=2, keepdims=True)
        ps, pb = sums / np.where(total > 0, total, 1.0)
        tot = ps + pb
        responses = np.divide(ps - pb, tot, out=np.zeros_like(tot), where=tot > 0)
    return WeakClassifierSet(
        mode=mode, var_names=variables, lo=lo, hi=hi,
        edges=edges, responses=responses, constant_variables=constant,
    )


# ---------------------------------------------------------------------------
# Derived variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedFormula:
    """Closed-form combination of two base variables."""

    name: str
    inputs: tuple[str, str]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _guarded_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with 0 where |den| < DIVISION_GUARD."""
    guarded = np.abs(den) < DIVISION_GUARD
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(guarded, 0.0, num / np.where(guarded, 1.0, den))

#: The nine published two-variable combinations, keyed by preset name.
DERIVED_PRESETS: dict[str, DerivedFormula] = {
    f.name: f
    for f in (
        DerivedFormula("pt_lep_over_met", ("pt_lep", "met"), _guarded_ratio),
        DerivedFormula("pt_lep_over_pt_jet1", ("pt_lep", "pt_jet1"), _guarded_ratio),
        DerivedFormula("discb_shift_times_pt_b", ("disc_b", "pt_b"),
                       lambda a, b: (a - 1.0) * b),
        DerivedFormula("met_mt_window", ("met", "mt"),
                       lambda a, b: np.abs((a - 280.0) * (b - 80.0))),
        DerivedFormula("met_ht_window", ("met", "ht"),
                       lambda a, b: np.abs((a - 280.0) * (b - 400.0))),
        DerivedFormula("dr_lb_minus_mt_scaled", ("dr_lb", "mt"),
                       lambda a, b: a - b / 40.0),
        DerivedFormula("ht_sq_over_n_jets", ("ht", "n_jets"),
                       lambda a, b: _guarded_ratio(a * a, b)),
        # Which transverse momentum enters here is ambiguous in the source
        # material; the lepton pT is the most plausible reading.
        DerivedFormula("pt_lep_plus_eta_sq", ("pt_lep", "eta_lep"),
                       lambda a, b: a + 3.5 * b * b),
        DerivedFormula("pt_lep_over_ht", ("pt_lep", "ht"), _guarded_ratio),
    )
}

#: high-contrast presets (variable set "A" adds these to the base list)
SET_A_DERIVED = (
    "pt_lep_over_met",
    "pt_lep_over_pt_jet1",
    "discb_shift_times_pt_b",
    "met_mt_window",
    "met_ht_window",
)

#: lower-contrast presets (set "B" adds these on top of set "A")
SET_B_DERIVED = (
    "dr_lb_minus_mt_scaled",
    "ht_sq_over_n_jets",
    "pt_lep_plus_eta_sq",
    "pt_lep_over_ht",
)


def variable_set(selector: str | Sequence[str]) -> tuple[tuple[str, ...], str]:
    """Resolve a named variable set to (variables, weak mode).

    "alpha" uses the base variables only normalized; "beta" the same variables
    through the density-ratio transform; "A" and "B" extend "beta" with derived
    combinations. A custom list selects those variables with density mode; it
    may name derived presets too.
    """
    if not isinstance(selector, str):
        if not selector:
            raise ConfigError("variables must name at least one variable")
        return tuple(selector), "density"
    key = selector.lower() if selector.lower() in ("alpha", "beta") else selector
    if key == "alpha":
        return BASE_VARIABLES, "normalized"
    if key == "beta":
        return BASE_VARIABLES, "density"
    if key == "A":
        return BASE_VARIABLES + SET_A_DERIVED, "density"
    if key == "B":
        return BASE_VARIABLES + SET_A_DERIVED + SET_B_DERIVED, "density"
    raise ConfigError(f"unknown variable set {selector!r} (expected alpha|beta|A|B or a list)")


def feature_matrix(d: Dataset, variables: Sequence[str]) -> np.ndarray:
    """The (n_events, k) matrix of `variables`: a `DERIVED_PRESETS` name that
    the schema lacks is computed from its two input columns, any other
    variable is read from the dataset.

    The matrix is Fortran-ordered, as `Dataset.matrix` returns it: the bits of
    the PCA covariance depend on the layout of its input.
    """
    cols = np.empty((len(variables), len(d)))
    for j, name in enumerate(variables):
        formula = DERIVED_PRESETS.get(name)
        if formula is None or name in d.schema:
            cols[j] = d.column(name)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            cols[j] = formula.fn(*map(d.column, formula.inputs))
        if not np.isfinite(cols[j]).all():
            raise DataError(f"derived variable {name!r} must be finite for every event")
    return cols.T


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaTransform:
    """Mean-centering plus rotation onto covariance eigenvectors (no truncation)."""

    mean: np.ndarray
    components: np.ndarray  # rows, descending eigenvalue order
    eigenvalues: np.ndarray

    def __post_init__(self):
        for a in (self.mean, self.components, self.eigenvalues):
            a.setflags(write=False)
        k = self.mean.size
        shapes = (self.mean.shape, self.components.shape, self.eigenvalues.shape)
        if shapes != ((k,), (k, k), (k,)):
            raise ConfigError(f"PCA mean, components and eigenvalues must have shapes (k,), "
                              f"(k, k) and (k,), got {shapes[0]}, {shapes[1]} and {shapes[2]}")


def fit_pca(matrix: np.ndarray) -> PcaTransform:
    """Eigendecomposition of the sample covariance (ddof=1), all components kept.

    Components are in descending eigenvalue order; equal eigenvalues keep
    `eigh`'s order, by a stable sort. Component signs are fixed so each row's
    largest-magnitude entry is positive, making the fit deterministic.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("PCA needs a 2-D matrix with at least 2 rows")
    if not np.isfinite(x).all():
        raise DataError("PCA input must be finite")
    mean = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    comps = v.T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaTransform(mean=mean, components=comps, eigenvalues=np.clip(w, 0.0, None))


def apply_pca(t: PcaTransform, matrix: np.ndarray) -> np.ndarray:
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != t.components.shape[1]:
        raise DataError("matrix width does not match the fitted PCA")
    return (x - t.mean) @ t.components.T


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeaturePipeline:
    """Feature matrix -> optional PCA -> weak classifiers.

    `transform` produces the h-value matrix the annealing classifier consumes.
    The weak stage is fitted in the (possibly rotated) feature basis; its
    variable names are `pc_<k>` when PCA is active.
    """

    variables: tuple[str, ...]
    derived: tuple[str, ...]  # the presets among `variables`, a record for model.json
    pca: PcaTransform | None
    weak: WeakClassifierSet

    def __post_init__(self):
        width = len(self.variables)
        if self.pca is not None and self.pca.mean.size != width:
            raise ConfigError(f"pca is {self.pca.mean.size} wide, not len(variables) = {width}")
        if self.weak.n_classifiers != width:
            raise ConfigError(f"weak has {self.weak.n_classifiers} classifiers, "
                              f"not len(variables) = {width}")

    def transform(self, d: Dataset) -> np.ndarray:
        x = feature_matrix(d, self.variables)
        if self.pca is not None:
            x = apply_pca(self.pca, x)
        return self.weak.evaluate_matrix(x)


def fit_feature_pipeline(
    train: Dataset,
    variables: Sequence[str],
    weak_mode: str = "density",
    n_bins: int = 50,
    use_pca: bool = False,
) -> FeaturePipeline:
    """Fit every pipeline stage on the training sample only."""
    x = feature_matrix(train, variables)
    pca = fit_pca(x) if use_pca else None
    if pca is not None:
        x = apply_pca(pca, x)
        names = tuple(f"pc_{k:02d}" for k in range(x.shape[1]))
    else:
        names = tuple(variables)
    feat = Dataset(names, x, train.tags, train.weights, train.processes)
    return FeaturePipeline(
        variables=tuple(variables),
        derived=tuple(v for v in variables if v in DERIVED_PRESETS),
        pca=pca, weak=weak_fit(feat, n_bins=n_bins, variables=names, mode=weak_mode),
    )
