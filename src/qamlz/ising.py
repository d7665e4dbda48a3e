"""Augmented classifier bank and the Ising problems it induces.

Every weak classifier is replaced by 2A+1 offset copies, so each variable
contributes a block of spins; the training sample then defines linear and
quadratic coupling sums from which the per-iteration problem fields and
couplers follow. Pruning, provably-sound variable fixing and gauge
relabelings operate on the resulting problems.

An `IsingProblem` stores its couplers as sorted arrays: (i, j) pairs with
i < j in lexicographic order next to their float64 values. Every operation
works on those arrays and keeps the order, so pruning is one threshold
selection, a gauge is one elementwise product, and per-spin sums (annealing
scale, fixing strength) add in ascending neighbour order.

Sign convention: sgn(0) = +1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _sweep
from .errors import ConfigError, DataError
from .features import WeakClassifierSet


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sgn(0) = +1, as int8 in {-1, +1}."""
    return np.where(np.asarray(x) >= 0, np.int8(1), np.int8(-1))


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


#: the largest offset range A: a layout has n_var * (2A + 1) spins, and its
#: coupling sums are a dense float64 matrix over them, 32 MiB for one
#: variable at A = 1024
_MAX_OFFSET_RANGE = 1024


def _check_layout(delta: float, offset_range: int) -> None:
    """The rules of an augmentation: 0 <= A <= `_MAX_OFFSET_RANGE`, delta > 0
    unless A = 0, and every offset delta*l finite."""
    if offset_range < 0:
        raise ConfigError("offset_range must be >= 0")
    if offset_range > _MAX_OFFSET_RANGE:
        raise ConfigError(f"offset_range must be <= {_MAX_OFFSET_RANGE}, got {offset_range}")
    if not math.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta}")
    if offset_range > 0 and not delta > 0:
        raise ConfigError("delta must be > 0 when offset_range > 0")
    if not math.isfinite(delta * offset_range):
        raise ConfigError(f"delta * offset_range must be finite, got {delta} * {offset_range}")


@dataclass(frozen=True)
class AugmentedClassifierSet:
    """Offset copies sgn(h_i + delta*l)/N of each weak classifier.

    Spins are laid out variable-major with the offset index l ascending from
    -offset_range to +offset_range, so spin I maps to (i, l) via
    I = i*(2A+1) + (l+A). Each copy takes values +-1/N with N the number of
    base variables.
    """

    base: WeakClassifierSet
    delta: float
    offset_range: int

    def __post_init__(self):
        _check_layout(self.delta, self.offset_range)

    @property
    def n_var(self) -> int:
        return self.base.n_classifiers

    @property
    def n_outcomes(self) -> int:
        return 2 * self.offset_range + 1

    @property
    def n_spins(self) -> int:
        return self.n_var * self.n_outcomes

    @property
    def offsets(self) -> np.ndarray:
        """delta*l for every spin index, layout-aligned."""
        ls = np.arange(-self.offset_range, self.offset_range + 1, dtype=np.float64)
        return np.tile(self.delta * ls, self.n_var)

    @property
    def var_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_var), self.n_outcomes)

    def signs_from_h(self, h_matrix: np.ndarray) -> np.ndarray:
        """(n_events, n_spins) matrix of sgn(h_i + delta*l) as int8."""
        h = np.asarray(h_matrix, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.n_var:
            raise DataError(f"expected (n, {self.n_var}) h matrix, got {h.shape}")
        return sign_pm1(h[:, self.var_index] + self.offsets[None, :])


# ---------------------------------------------------------------------------
# Coupling sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingMatrices:
    """Weighted training sums: tag_sums_I = sum_ev w*c_I*y and
    pair_sums_IJ = sum_ev w*c_I*c_J (symmetric, diagonal included).

    `triangle` and `triangle_sums` describe the couplers every problem of
    these sums has; each is built on its first use and the same read-only
    array is returned after that."""

    tag_sums: np.ndarray
    pair_sums: np.ndarray

    def __post_init__(self):
        self.tag_sums.setflags(write=False)
        self.pair_sums.setflags(write=False)

    @property
    def n_spins(self) -> int:
        return len(self.tag_sums)

    @cached_property
    def triangle(self) -> np.ndarray:
        """(m, 2) int64 pairs (i, j), i < j, in lexicographic order: every
        coupler of an `effective_problem`."""
        return _read_only(np.column_stack(
            np.triu_indices(self.n_spins, k=1)).astype(np.int64, copy=False))

    @cached_property
    def triangle_sums(self) -> np.ndarray:
        """pair_sums at each `triangle` pair."""
        return _read_only(self.pair_sums[tuple(self.triangle.T)])


def build_couplings_from_signs(
    signs: np.ndarray, tags: np.ndarray, weights: np.ndarray, n_var: int
) -> CouplingMatrices:
    """Coupling sums from a (n_events, n_spins) sign matrix."""
    c = signs.astype(np.float64) / n_var
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(tags, dtype=np.float64)
    tag_sums = c.T @ (w * y)
    pair_sums = c.T @ (c * w[:, None])
    pair_sums = 0.5 * (pair_sums + pair_sums.T)  # exact symmetric fill
    return CouplingMatrices(tag_sums=tag_sums, pair_sums=pair_sums)


# ---------------------------------------------------------------------------
# Ising problems
# ---------------------------------------------------------------------------


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen(value, dtype) -> np.ndarray:
    """A contiguous array of `value` that no caller can write: a read-only
    input is shared, a writable one is copied so the caller keeps its own."""
    arr = np.ascontiguousarray(value, dtype=dtype)
    if arr.flags.writeable and np.may_share_memory(arr, value):
        arr = arr.copy()
    return _read_only(arr)


@dataclass(frozen=True)
class IsingProblem:
    """Fields h and couplers J of sum_i h_i s_i + sum_{i<j} J_ij s_i s_j.

    The couplers are two read-only arrays: `pairs`, (m, 2) int64 rows (i, j)
    with i < j in strictly increasing lexicographic order, and `values`, the
    (m,) float64 couplers. A stored coupler whose value is 0.0 is still a
    coupler: it counts in `n_couplers`, is written to the wire format and is a
    neighbour for fixing.
    """

    h: np.ndarray
    pairs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        h = _frozen(self.h, np.float64)
        pairs = _frozen(self.pairs, np.int64)
        values = _frozen(self.values, np.float64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        for name, arr in (("h", h), ("pairs", pairs), ("values", values)):
            object.__setattr__(self, name, arr)
        if h.ndim != 1 or not np.isfinite(h).all():
            raise ConfigError("fields must be a finite vector")
        if pairs.ndim != 2 or pairs.shape[1] != 2 or values.shape != (len(pairs),):
            raise ConfigError("couplers need an (m, 2) pair array and m values")
        n = len(h)
        i, j = pairs.T
        if not ((0 <= i) & (i < j) & (j < n)).all():
            raise ConfigError("coupler pairs must satisfy 0 <= i < j < n")
        if not (np.diff(i * n + j) > 0).all():
            raise ConfigError("coupler pairs must be unique and sorted by (i, j)")
        if not np.isfinite(values).all():
            raise ConfigError("couplers must be finite")

    @property
    def n_spins(self) -> int:
        return len(self.h)

    @property
    def n_couplers(self) -> int:
        return len(self.values)

    def dense_couplers(self) -> np.ndarray:
        """Symmetric coupler matrix with zero diagonal. It is built on the
        first call and the same read-only array is returned after that."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        m = np.zeros((self.n_spins, self.n_spins))
        i, j = self.pairs.T
        m[i, j] = m[j, i] = self.values
        return _read_only(m)

    def neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every coupler seen from both ends, as compressed sparse rows
        (start, nb, vals): spin i's neighbours are nb[start[i]:start[i + 1]],
        ascending, with their couplers in vals[start[i]:start[i + 1]], so
        per-spin sums accumulated in this order add in ascending neighbour
        order. The three read-only arrays are built on the first call and the
        same ones are returned after that.

        The rows come from one stable sort by spin of every pair seen from its
        j end, then from its i end. Spin x's lower neighbours (pairs (i, x))
        come first, by ascending i, and its higher ones (pairs (x, j)) after,
        by ascending j, because `pairs` is sorted by (i, j): so each row is
        ascending without a second sort key."""
        return self._csr

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        i, j = self.pairs.T
        spin, nb = np.concatenate([j, i]), np.concatenate([i, j])
        order = np.argsort(spin, kind="stable")
        start = np.zeros(self.n_spins + 1, dtype=np.int64)
        np.cumsum(np.bincount(spin, minlength=self.n_spins), out=start[1:])
        vals = np.concatenate([self.values, self.values])[order]
        return _read_only(start), _read_only(nb[order]), _read_only(vals)

    def to_dict(self) -> dict:
        return {
            "n": self.n_spins,
            "h": self.h.tolist(),
            "J": [[a, b, v] for (a, b), v in zip(self.pairs.tolist(), self.values.tolist())],
        }


def effective_problem(
    cm: CouplingMatrices,
    mu: np.ndarray,
    sigma: float,
    lam: float = 0.0,
) -> IsingProblem:
    """Per-iteration problem at search center mu and width sigma.

    Fields are lam + sigma*(-tag_sums_I + sum_J mu_J pair_sums_IJ); the sum
    runs over all J, J = I included.
    The coupler of each unordered pair {I, J} is pair_sums_IJ * sigma**2, so
    the triangular energy matches the ordered double-sum form in which each
    pair appears twice with half this coefficient.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (cm.n_spins,):
        raise ConfigError(f"mu must have length {cm.n_spins}, got {mu.shape}")
    if not sigma > 0:
        raise ConfigError("sigma must be positive")
    h = lam + sigma * (-cm.tag_sums + cm.pair_sums @ mu)
    return IsingProblem(h=h, pairs=cm.triangle, values=cm.triangle_sums * sigma * sigma)


def energy(p: IsingProblem, spins: Sequence[int] | np.ndarray) -> float:
    """Energy of one spin configuration."""
    s = np.asarray(spins)
    if s.shape != (p.n_spins,):
        raise ConfigError(f"spin vector must have length {p.n_spins}")
    if not np.isin(s, (-1, 1)).all():
        raise ConfigError("spins must be +1 or -1")
    return float(energies_batch(p, s[None, :])[0])


def energies_batch(p: IsingProblem, spins: np.ndarray) -> np.ndarray:
    """Energies of a (n_configs, n_spins) batch of +-1 configurations.

    A row's last bits depend on the batch's row count: OpenBLAS gemv sums
    whole groups of four rows in one order and the rows left over in another.
    So `energy(p, s)`, a batch of one row, can differ in the last bit from the
    same state's energy inside `solve_exact`, which scores whole quads.
    """
    s = np.asarray(spins, dtype=np.float64)
    e = s @ p.h
    if p.n_couplers:
        i, j = p.pairs.T
        e = e + (s[:, i] * s[:, j]) @ p.values
    return e


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------


def keep_count(n_couplers: int, cutoff_pct: float) -> int:
    """Couplers a `cutoff_pct` prune keeps out of `n_couplers`: ceil((1 - cutoff/100)*M)."""
    return math.ceil((1.0 - cutoff_pct / 100.0) * n_couplers)


def prune(p: IsingProblem, cutoff_pct: float) -> IsingProblem:
    """Keep the `keep_count` largest-magnitude couplers.

    Ties are broken by ascending (i, j) so nested cutoffs retain nested
    coupler sets. Fields are untouched.

    The kept set is every coupler above the keep-th largest magnitude, then
    the first couplers at that magnitude in `pairs`' own (i, j) order: one
    partition selects it, and it is the set a sort by (-|J|, i, j) keeps.
    """
    if not 0.0 <= cutoff_pct <= 100.0:
        raise ConfigError("cutoff percentage must be in [0, 100]")
    keep = keep_count(p.n_couplers, cutoff_pct)
    if keep >= p.n_couplers:
        return p
    mags = np.abs(p.values)
    # couplers are finite, so an infinite threshold keeps none of them
    threshold = np.partition(mags, -keep)[-keep] if keep else np.inf
    kept = mags > threshold
    kept[np.flatnonzero(mags == threshold)[:keep - np.count_nonzero(kept)]] = True
    kept = np.flatnonzero(kept)  # row indices take the pairs faster than a mask
    return IsingProblem(h=p.h, pairs=p.pairs[kept], values=p.values[kept])


# ---------------------------------------------------------------------------
# Variable fixing
# ---------------------------------------------------------------------------


def fix_variables(p: IsingProblem) -> tuple[np.ndarray, IsingProblem]:
    """Iterated field-dominance fixing: any spin with |h_i| > sum_j |J_ij| is
    pinned to -sgn(h_i), folded into its neighbours' fields, and the rule is
    re-applied to a fixpoint. Every fixed value holds in all ground states.

    Returns `fixed`, int8 over p's spins: the +-1 value of each fixed spin and
    0 at each free one; and the reduced problem over the free spins in
    ascending order, which `expand_solution` maps back. Each pass visits its
    frontier in ascending spin order and sums |J_ij| in ascending neighbour
    order, in `qamlz._sweep.FIX`, compiled or its Python reference.
    """
    h = p.h.copy()
    alive = np.ones(p.n_spins, dtype=bool)
    _sweep.FIX(h, alive, *p.neighbours())
    # a fixed spin's field never changes after it is fixed, so -sgn(h_i) of
    # the final fields is the sign each spin was fixed to
    fixed = -sign_pm1(h)
    fixed[alive] = 0
    both_alive = alive[p.pairs].all(axis=1)
    new_index = np.cumsum(alive) - 1
    reduced = IsingProblem(h=h[alive], pairs=new_index[p.pairs[both_alive]],
                           values=p.values[both_alive])
    return fixed, reduced


def expand_solution(fixed: np.ndarray, reduced_spins: np.ndarray) -> np.ndarray:
    """A full int8 spin vector: `fixed`'s +-1 entries, and its 0 entries
    filled with `reduced_spins` in ascending spin order."""
    out = np.array(fixed, dtype=np.int8)
    free = out == 0
    if free.sum() != len(reduced_spins):
        raise ConfigError("reduced solution length does not match the fixing")
    out[free] = reduced_spins
    return out


# ---------------------------------------------------------------------------
# Gauges
# ---------------------------------------------------------------------------


def random_gauge(n_spins: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.integers(0, 2, size=n_spins) * 2 - 1).astype(np.int8)


def _checked_gauge(gauge, n_spins: int) -> np.ndarray:
    """`gauge` as an array, if it is a +-1 vector over `n_spins` spins."""
    g = np.asarray(gauge)
    if g.shape != (n_spins,) or not np.isin(g, (-1, 1)).all():
        raise ConfigError("gauge must be a +-1 vector matching the problem size")
    return g


def apply_gauge(p: IsingProblem, gauge: np.ndarray) -> IsingProblem:
    """Relabeled problem with h'_i = g_i h_i and J'_ij = g_i g_j J_ij: state
    s of it has the energy of g*s under p, so a solution s of it maps back to
    g*s. `solve_sa` and `solve_chain_emulated` need no gauged problem: they
    take the gauge through their start states.
    """
    gf = _checked_gauge(gauge, p.n_spins).astype(np.float64)
    i, j = p.pairs.T
    return IsingProblem(h=p.h * gf, pairs=p.pairs, values=p.values * gf[i] * gf[j])
