"""Ground-state search backends.

`solve_exact` enumerates small problems and is the oracle; `solve_sa` runs
independent Metropolis anneals down a geometric temperature ladder (the
classical stand-in for hardware annealing, with the anneal time mapped to a
sweep count); `solve_chain_emulated` stretches each logical spin into a
ferromagnetic chain and decodes by majority vote, reproducing the breakage
phenomenology of hardware embeddings.

All solvers are pure functions of (problem, schedule, seed): repeated calls
give identical results, and the read batch advances on one seed-keyed stream
so replay does not depend on execution order.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _sweep
from ._codec import is_finite, is_number, read_json
from .errors import ConfigError, DataError
from .ising import IsingProblem, _checked_gauge, energies_batch

EXACT_SPIN_LIMIT = 24
#: fast energies scored per block of the exact enumeration (128 KiB of
#: float64): the fastest of 2**13..2**15 at 17 and 20 spins
_ENUM_CHUNK = 1 << 14
#: candidates scored again per `energies_batch` call: whole quads, and the
#: (rows x couplers) temporaries of a 24-spin problem stay near 2 MiB
_RESCORE_ROWS = 1 << 10
_UNIT_ROUNDOFF = 2.0 ** -53
#: upper bounds of an `AnnealSchedule`'s counts. An anneal holds its state
#: and fields as two (n_spins, n_reads) float64 arrays, 1 MiB per spin at
#: 2^16 reads, and a solve selects at most n_reads states, so an
#: excited-state cap takes the same bound; 2^20 sweeps are a thousand times
#: the default, and each gauge is one more anneal of every candidate centre
_MAX_READS = 1 << 16
_MAX_SWEEPS = 1 << 20
_MAX_GAUGES = 1 << 10
#: the chain-expanded problem has `length` physical spins per logical spin,
#: so its anneal is `length` times as large
_MAX_CHAIN_LENGTH = 1 << 6


def at_iteration(schedule, t: int):
    """Entry t of a per-iteration schedule. A schedule shorter than t + 1
    extends by its last entry; a bare number holds at every iteration."""
    if isinstance(schedule, (int, float)):
        return schedule
    return schedule[min(t, len(schedule) - 1)]


@dataclass(frozen=True)
class AnnealSchedule:
    """Sampling protocol: read count, sweep ladder, and the per-iteration
    gauge counts n_g, excited-state caps n_e and energy windows d used by the
    training loop, each read through `at_iteration`. A window of None means
    5% of the best energy magnitude, and an empty `d` is one such window.
    """

    n_reads: int = 200
    sweeps: int = 1000
    t_hot: float | None = None
    t_cold: float = 1e-2
    n_g: tuple[int, ...] = (50, 10, 10, 10, 10, 10, 10, 10)
    n_e: tuple[int, ...] = (1, 1, 1, 1, 1, 1, 1, 1)
    d: tuple[float | None, ...] = (None,) * 8

    def __post_init__(self):
        if self.n_reads < 1:
            raise ConfigError("n_reads must be >= 1")
        if self.n_reads > _MAX_READS:
            raise ConfigError(f"n_reads must be <= {_MAX_READS}, got {self.n_reads}")
        if self.sweeps < 2:
            raise ConfigError("sweeps must be >= 2 for a decreasing ladder")
        if self.sweeps > _MAX_SWEEPS:
            raise ConfigError(f"sweeps must be <= {_MAX_SWEEPS}, got {self.sweeps}")
        if not self.t_cold > 0:
            raise ConfigError("t_cold must be positive")
        if self.t_hot is not None and not self.t_hot > self.t_cold:
            raise ConfigError("t_hot must exceed t_cold")
        if not self.n_g or any(g < 1 for g in self.n_g):
            raise ConfigError("gauge counts must be >= 1")
        if any(g > _MAX_GAUGES for g in self.n_g):
            raise ConfigError(f"gauge counts must be <= {_MAX_GAUGES}")
        if not self.n_e or any(e < 1 for e in self.n_e):
            raise ConfigError("excited-state caps must be >= 1")
        if any(e > _MAX_READS for e in self.n_e):
            raise ConfigError(f"excited-state caps must be <= {_MAX_READS}")
        if any(w is not None and w < 0 for w in self.d):
            raise ConfigError("energy windows d must be >= 0 or null")
        if not self.d:
            object.__setattr__(self, "d", (None,))

    def ladder(self, p: IsingProblem) -> np.ndarray:
        """Decreasing geometric temperature ladder from the hot end to
        `t_cold`, every rung > 0, the hot end derived from the problem scale
        when not set explicitly."""
        hot = self.t_hot
        if hot is None:
            start, _, v = p.neighbours()
            spin = np.repeat(np.arange(p.n_spins), np.diff(start))
            # bincount adds in input order: ascending neighbour order per spin
            row = np.bincount(spin, weights=np.abs(v), minlength=p.n_spins)
            scale = float((np.abs(p.h) + row).max(initial=0.0))
            hot = 2.0 * scale if scale > 0 else 1.0
            hot = max(hot, self.t_cold * 10.0)
        ratio = (self.t_cold / hot) ** (1.0 / (self.sweeps - 1))
        ladder = hot * ratio ** np.arange(self.sweeps)
        # where t_cold / hot or a power of the ratio underflows, that ladder
        # reaches T = 0; spacing the exponents instead keeps every rung > 0
        return ladder if (ladder > 0).all() else np.geomspace(hot, self.t_cold, self.sweeps)


@dataclass(frozen=True)
class SolverResult:
    """Samples plus chain-breakage bookkeeping. Construction sorts the samples
    by ascending energy, stably, so equal energies keep their given order."""

    spins: np.ndarray     # (n_samples, n_spins), entries +-1
    energies: np.ndarray  # (n_samples,)
    broken_chain_fraction: float = 0.0

    def __post_init__(self):
        order = np.argsort(self.energies, kind="stable")
        for name in ("spins", "energies"):
            arr = np.ascontiguousarray(getattr(self, name)[order])
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


def solve_exact(p: IsingProblem, keep: int = 32) -> SolverResult:
    """Enumerate all 2**n configurations (n <= 24) and return the lowest
    `keep` states of the spectrum, energy-ascending with index-order ties.

    Configuration k sets spin i to +1 where bit i of k is set. The n spins
    split into a = n // 2 low and b = n - a high ones, so every energy is
    E_lo[lo] + E_hi[hi] + s_hi . J_x . s_lo, with J_x the couplers between
    the halves: one (rows x a) @ (a x 2**a) product scores a block of high
    states against every low state. Those fast energies only select
    candidates: a state is one if its fast energy is within `_exact_margin`
    of the keep-th lowest among the kept states and its block. The
    candidates are scored again by `energies_batch` in whole aligned quads of
    configurations 4q..4q+3, and ranked by (energy, index). A row's last
    bits in `energies_batch` depend on where it falls among the batch's groups
    of four rows, so whole quads give each state the bits it gets in a batch
    of all 2**n configurations.
    """
    n = p.n_spins
    if n > EXACT_SPIN_LIMIT:
        raise ConfigError(
            f"exact solver supports at most {EXACT_SPIN_LIMIT} spins, got {n}"
        )
    keep = min(keep, 1 << n)
    a = n // 2
    lo, hi = _spin_table(a), _spin_table(n - a)
    upper = np.zeros((n, n))
    upper[tuple(p.pairs.T)] = p.values
    e_lo = lo @ p.h[:a] + ((lo @ upper[:a, :a]) * lo).sum(axis=1)
    e_hi = hi @ p.h[a:] + ((hi @ upper[a:, a:]) * hi).sum(axis=1)
    field_lo = hi @ upper[:a, a:].T  # each high state's couplings onto the low spins
    margin = _exact_margin(p)
    rows = max(4, _ENUM_CHUNK >> a)  # four high states or more: whole quads
    best_idx = np.empty(0, dtype=np.int64)
    best_e = best_f = np.empty(0)
    for h0 in range(0, len(hi), rows):
        f = (field_lo[h0:h0 + rows] @ lo.T + e_hi[h0:h0 + rows, None] + e_lo).ravel()
        # the kept states and this block: their keep-th lowest fast energy is
        # no lower than that of all 2**n states, so it is a safe cut
        seen = np.concatenate([best_f, f])
        cut = np.partition(seen, keep - 1)[keep - 1] if len(seen) > keep else np.inf
        quads = np.unique(np.flatnonzero(f <= cut + margin) >> 2)
        pos = (quads[:, None] * 4 + np.arange(4)).ravel()
        pos = pos[pos < len(f)]  # a quad is clipped only when 2**n < 4
        idx = pos + (h0 << a)
        cat_idx = np.concatenate([best_idx, idx])
        cat_e = np.concatenate([best_e, *(
            energies_batch(p, _spins(idx[k:k + _RESCORE_ROWS], n))
            for k in range(0, len(idx), _RESCORE_ROWS))])
        cat_f = np.concatenate([best_f, f[pos]])
        order = np.lexsort((cat_idx, cat_e))[:keep]
        best_idx, best_e, best_f = cat_idx[order], cat_e[order], cat_f[order]
    return SolverResult(spins=_spins(best_idx, n), energies=best_e)


def _exact_margin(p: IsingProblem) -> float:
    """Candidate margin 4 gamma_L (sum|h| + sum|J|), with u = 2**-53 and
    gamma_L = L u / (1 - L u).

    Each energy term reaches the fast sum, and the `energies_batch` sum,
    through at most L = n**2 + 2 roundings. So both energies of a state lie
    within d = gamma_L (sum|h| + sum|J|) of its exact energy, and within 2d of
    each other. The keep states whose fast energies are at most a cut c have
    `energies_batch` energies at most c + 2d, so every state the ranking keeps
    has a fast energy of at most c + 4d. Neither sum needs more than
    max(n + 1, n (n - 1) / 2) roundings; for n >= 2 the 3 or more to spare
    cover the rounding of the margin itself and of c + margin, and with fewer
    spins both sums are exact.
    """
    terms = p.n_spins ** 2 + 2
    gamma = terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)
    return 4.0 * gamma * float(np.abs(p.h).sum() + np.abs(p.values).sum())


def _spin_table(n: int) -> np.ndarray:
    """(2**n, n) float64 +-1 table whose row k holds the bits of k."""
    return _spins(np.arange(1 << n), n).astype(np.float64)


def _spins(idx: np.ndarray, n: int) -> np.ndarray:
    """+-1 int8 configurations of the enumeration indices `idx`."""
    return (((idx[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(np.int8)


# ---------------------------------------------------------------------------
# Simulated annealing
# ---------------------------------------------------------------------------


def solve_sa(
    p: IsingProblem,
    sched: AnnealSchedule,
    seed: int | tuple,
    gauge: np.ndarray | None = None,
) -> SolverResult:
    """Metropolis single-spin-flip annealing, `n_reads` independent restarts.

    Spins are visited in index order within each sweep; one uniform per
    (spin, read) is drawn per sweep regardless of acceptance so the stream is
    state-independent. `gauge`, a +-1 vector over p's spins, multiplies every
    seeded start state. Metropolis is gauge-covariant bit for bit: this anneal
    is that of `apply_gauge(p, gauge)` from the seeded starts, on the same
    uniforms, with its states multiplied by the gauge. So the samples are in
    p's frame, and a gauge needs no problem of its own. The whole ladder is
    one call of the sweep, which draws each sweep's uniforms from `rng_sweep`
    as one `random((n_spins, n_reads))` would. It runs compiled C, drawing
    each uniform where it is used, when a compiler was found at import, else
    numpy; both hold the reads innermost, walk the couplers as sparse rows
    and give the same samples (see `qamlz._sweep`).
    """
    n = p.n_spins
    rng_init = np.random.default_rng((0, *_as_key(seed)))
    rng_sweep = np.random.default_rng((1, *_as_key(seed)))
    state = (rng_init.integers(0, 2, size=(sched.n_reads, n)) * 2 - 1).astype(np.float64)
    if gauge is not None:
        state *= _checked_gauge(gauge, n)
    # local coupling fields, maintained incrementally by the sweep; the dense
    # product's rounding feeds every later sweep. The sweep takes both as
    # (n_spins, n_reads), the reads innermost
    fields = np.ascontiguousarray((state @ p.dense_couplers()).T)
    state = np.ascontiguousarray(state.T)
    _sweep.SWEEP(state, fields, *p.neighbours(), p.h, rng_sweep, sched.ladder(p))
    spins = state.T.astype(np.int8, order="C")
    return SolverResult(spins=spins, energies=energies_batch(p, spins))


def _as_key(seed: int | tuple) -> tuple:
    return tuple(seed) if isinstance(seed, tuple) else (seed,)


# ---------------------------------------------------------------------------
# Chain emulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    """Chain emulation knobs: physical spins per logical spin and the
    intra-chain coupling strength relative to the largest problem coupler.
    An optional per-iteration strength schedule, read through
    `at_iteration`, overrides `strength`: the training loop hands the chain
    solver, which reads only `strength`, a copy holding the iteration's entry."""

    length: int = 4
    strength: float = 1.0
    strength_schedule: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("chain length must be >= 1")
        if self.length > _MAX_CHAIN_LENGTH:
            raise ConfigError(f"chain length must be <= {_MAX_CHAIN_LENGTH}, got {self.length}")
        if not self.strength > 0:
            raise ConfigError("chain strength must be positive")
        if self.strength_schedule is not None and any(
            not r > 0 for r in self.strength_schedule
        ):
            raise ConfigError("chain strength schedule entries must be positive")


def expand_chains(p: IsingProblem, cc: ChainConfig) -> IsingProblem:
    """Physical problem: each logical spin becomes a ferromagnetic chain of
    `length` spins sharing the field evenly; logical couplers attach between
    the last spin of the lower chain and the first spin of the upper chain."""
    length = cc.length
    max_j = float(np.abs(p.values).max(initial=0.0))
    chain_coupling = -cc.strength * max_j  # negative = ferromagnetic, aligned spins favoured
    h = np.repeat(p.h / length, length)
    pairs = p.pairs * length + np.array([length - 1, 0])
    values = p.values
    if length > 1 and chain_coupling != 0.0:
        first = (np.arange(p.n_spins)[:, None] * length + np.arange(length - 1)).ravel()
        pairs = np.concatenate([np.column_stack([first, first + 1]), pairs])
        values = np.concatenate([np.full(len(first), chain_coupling), values])
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return IsingProblem(h=h, pairs=pairs[order], values=values[order])


def decode_chains(
    physical: np.ndarray, n_logical: int, length: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Majority-vote each chain of a (n_samples, n_logical*length) readout.

    Even splits are broken by one coin per tie, drawn in row-major (sample,
    chain) order. Returns the logical spins and the fraction of chains whose
    physical spins disagree.
    """
    blocks = np.asarray(physical).reshape(-1, n_logical, length)
    sums = blocks.sum(axis=2, dtype=np.int64)
    logical = np.where(sums > 0, 1, -1).astype(np.int8)
    ties = sums == 0
    logical[ties] = np.where(rng.random(int(ties.sum())) < 0.5, 1, -1)
    return logical, float((np.abs(sums) < length).mean())


def solve_chain_emulated(
    p: IsingProblem,
    cc: ChainConfig,
    sched: AnnealSchedule,
    seed: int | tuple,
    gauge: np.ndarray | None = None,
) -> SolverResult:
    """Anneal the chain-expanded problem and decode each chain by majority
    vote; even splits are broken by a seeded coin. Reported energies are those
    of the decoded logical configurations under the logical problem, and
    broken_chain_fraction counts chains whose physical spins disagree, over
    all reads. With length 1 this is sample-for-sample identical to solve_sa.

    `gauge`, a +-1 vector over p's spins, reaches the anneal as every chain
    spin's entry of `solve_sa`'s gauge, and the chains are decoded in the
    gauged frame, so the tie coins fall as they would for the gauged problem:
    the result is that of `apply_gauge(p, gauge)` with its spins multiplied
    by the gauge.
    """
    g = _checked_gauge(np.ones(p.n_spins) if gauge is None else gauge, p.n_spins).astype(np.int8)
    chain_gauge = np.repeat(g, cc.length)
    res = solve_sa(expand_chains(p, cc), sched, seed=seed, gauge=chain_gauge)
    rng_tie = np.random.default_rng((2, *_as_key(seed)))
    gauged, broken_fraction = decode_chains(res.spins * chain_gauge, p.n_spins, cc.length,
                                            rng_tie)
    logical = gauged * g
    return SolverResult(spins=logical, energies=energies_batch(p, logical),
                        broken_chain_fraction=broken_fraction)


# ---------------------------------------------------------------------------
# External solver escape hatch
# ---------------------------------------------------------------------------


def parse_solver_reply(p: IsingProblem, doc: Mapping) -> SolverResult:
    """Validate a reply of the form {"samples": [{"spins": [+-1...], "energy": f}]}.

    Reported energies must match the problem's own evaluation to 1e-9. This is
    the wire format a hardware- or service-backed solver must speak. Spins
    and `broken_chain_fraction` must be JSON numbers, the last a fraction in
    [0, 1], and energies finite floats. Any malformed reply raises
    `DataError` naming the first bad sample.
    """
    samples = doc.get("samples") if isinstance(doc, Mapping) else None
    if not isinstance(samples, list) or not samples:
        raise DataError("solver reply must carry a non-empty `samples` list")
    spins = np.empty((len(samples), p.n_spins), dtype=np.int8)
    reported = np.empty(len(samples))
    for k, rec in enumerate(samples):
        if not isinstance(rec, Mapping) or not is_finite(rec.get("energy")):
            raise DataError(f"sample {k}: reported `energy` is missing or not a finite number")
        s = rec.get("spins")
        if not (isinstance(s, list) and len(s) == p.n_spins
                and all(is_number(v) and v in (-1, 1) for v in s)):
            raise DataError(f"sample {k}: spins must be a +-1 vector of length {p.n_spins}")
        spins[k] = s
        reported[k] = rec["energy"]
    energies = energies_batch(p, spins)
    bad = np.flatnonzero(~(np.abs(reported - energies) <= 1e-9))  # NaN is bad
    if len(bad):
        k = bad[0]
        raise DataError(
            f"sample {k}: reported energy {reported[k]} is not the problem energy {energies[k]}"
        )
    broken = doc.get("broken_chain_fraction", 0.0)
    if not (is_number(broken) and 0.0 <= broken <= 1.0):  # NaN fails the range
        raise DataError(f"broken_chain_fraction must be a number in [0, 1], got {broken!r}")
    return SolverResult(spins=spins, energies=energies, broken_chain_fraction=float(broken))


def solve_external(p: IsingProblem, command: Sequence[str],
                   timeout: float | None = None) -> SolverResult:
    """Hand the problem JSON to an external command on stdin and parse its reply.

    The command receives {n, h, J} and must print the sample reply
    documented in `parse_solver_reply`; this is the extension point for a real
    annealer client.
    """
    try:
        proc = subprocess.run(
            list(command), input=json.dumps(p.to_dict()).encode(), capture_output=True,
            timeout=timeout, check=True,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise DataError(f"external solver failed: {exc}") from exc
    return parse_solver_reply(p, read_json(proc.stdout, DataError, "external solver reply"))


# ---------------------------------------------------------------------------
# State selection
# ---------------------------------------------------------------------------


def select_states(res: SolverResult, n_e: int, d: float) -> list[np.ndarray]:
    """At most n_e distinct configurations within d of the best energy, best first."""
    if len(res.energies) == 0:
        raise ConfigError("solver result has no samples")
    if n_e < 1:
        raise ConfigError("n_e must be >= 1")
    cutoff = float(res.energies[0]) + max(d, 0.0)
    out: list[np.ndarray] = []
    seen: set[bytes] = set()
    for i in range(len(res.energies)):
        if res.energies[i] > cutoff:
            break
        key = res.spins[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(res.spins[i])
        if len(out) == n_e:
            break
    return out
