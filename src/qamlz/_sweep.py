"""The compiled loops of qamlz: the Metropolis sweeps over every read of a
simulated-annealing batch, the frontier loop of variable fixing, and the
per-event random streams of synthetic generation.

`solve_sa` runs its whole temperature ladder through one call of `SWEEP`,
`ising.fix_variables` runs its fixing passes through `FIX`, and
`dataset.generate_synthetic` draws each chunk of events from `STREAMS`. The
references are `numpy_sweep`, `numpy_fix` and `NumpyStreams`. `SWEEP` and
`FIX` are the same loops compiled from `_sa_sweep.c` with the system C
compiler (`cc`) when this module is first imported, or the references
themselves when there is no compiler on PATH, the cache directory cannot be
written or the library does not load; one line on stderr says so. Compiling
at import, not at the first solve, keeps the compiler out of the solves a
caller times. The library is loaded once, as `_LIB` (None where it is
unavailable), and its functions' argument types are set beside it;
`compiled_sweep`, `compiled_fix` and `CompiledStreams` call it, and `SWEEP`,
`FIX` and `STREAMS` are each one assignment of a compiled loop or its
reference.

`STREAMS` seeds and draws every event's PCG64 stream in `_event_streams.c`,
compiled into the same library and linked with numpy's own normal sampler,
`random_standard_normal` of the `libnpyrandom.a` that numpy ships
(`ARCHIVE`), so its draws are numpy's bit for bit. It also computes each
Gaussian attempt's value, in one fixed order that takes no BLAS product,
and tests it against the bounds as it is drawn, so each event is finished
in one call. `NumpyStreams.values` computes the same values in the same
order, vectorised over the events that are still pending. Where the archive
is missing, or the library does not link or load with it, the library is
built from `_sa_sweep.c` alone and `STREAMS` is `NumpyStreams`, one numpy
generator per event; one line on stderr says so.

All four loops walk the couplers as compressed sparse rows
(`IsingProblem.neighbours`). In the sweeps an accepted flip of spin i updates
only the fields of i's neighbours. Both sweeps hold the state and the fields
as (n_spins, n_reads), the reads innermost, so one spin's reads are
contiguous: each decides spin i in every read, then updates the accepted
reads' neighbour fields. A flip of spin i changes no read's field at i, so
every field receives the same operations in the same order as when one read
is swept after another. Where more than a quarter of the reads accept spin i,
the C sweep updates each neighbour row whole, in a loop that vectorises: it
subtracts 2*s*c from the accepted reads' fields, as the list does, and
(+-0.0)*c = +-0.0 from the rest. That changes at most the sign of a zero field,
and a zero field's sign never changes a decision, since f + h and so the flip's
cost are equal as numbers for f = +0.0 and -0.0. It is why `compiled_sweep`
refuses couplers that are not finite: 0.0 times an infinite c is NaN. Both
sweeps draw one uniform per (sweep, spin, read), in that order, from the read
batch's own PCG64 `Generator`: the numpy sweep as one
`rng.random((n_spins, n_reads))` per sweep, the C sweep as PCG64's
`next_double` into a row buffer of `n_reads` uniforms before each spin, from
the generator's state words (`_pcg64.h`, which the event streams share),
which it writes back. It steps four states at a time, each computed from the
state before them by a precomputed jump, so that the four 128-bit products
overlap. So both draw the same doubles and leave the generator in the same
state. The C sweep then decides the row's reads in one branch-free pass that
vectorises, and calls `exp` in a second pass only for the decisions the
bounds below leave open.

Each compiled loop performs the same floating-point operations in the same
order as its reference, but for the sweep's subtractions of +-0.0 above. The
sweep is built once per x86-64 level (SSE2, SSE4.2, AVX2, AVX-512), and the
dynamic loader runs the best one the CPU has; every level performs those
operations too, so the samples do not depend on the CPU. So
`FIX` leaves the reference's fields and live spins bit for bit (`fix_variables`
reads its +-1/0 fixing vector from them), and `SWEEP` the same samples and
fields equal as numbers, with one difference: `exp`. The C library's and
numpy's vectorised versions disagree in the last ulp on about 5% of
arguments. That flips an acceptance only when the uniform falls inside that
ulp, about once in 1e16 updates. The C sweep divides and calls `exp` for under 2% of the updates of
an 84-spin, 100-read anneal: where its result is exactly 0.0 it rejects, and
elsewhere two cubic Taylor bounds, 1/P(y) >= e^-y >= L(y) at y =
delta*(1/T), settle most comparisons u < exp(-delta/T) with margins far
beyond their rounding. Each of those decisions is the one `exp` would give;
`_sa_sweep.c` has the argument.

The library is cached as `$XDG_CACHE_HOME/qamlz/sa_sweep-<key>.so` (default
`~/.cache/qamlz/`), with a key hashed from the sources, the flags, the
compiler binary and numpy's archives, so that a numpy upgrade never reuses a
library holding an older sampler. Each build writes a temporary file and
renames it into place, so processes that build at once leave one library and
no temporaries.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_sa_sweep.c")
STREAMS_SOURCE = Path(__file__).with_name("_event_streams.c")
#: PCG64 in C, included by both sources
HEADER = Path(__file__).with_name("_pcg64.h")
#: numpy's C distributions, whose random_standard_normal the streams call;
#: found without importing numpy.random, which the compiled paths never need
ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
#: numpy's math library: before numpy 2 the distributions call npy_log1p in it
NPYMATH = Path(np.get_include()).parent / "lib" / "libnpymath.a"
# -O3 vectorises the sweep's decision pass and whole-row updates; it keeps
# every bit, as GCC and Clang reorder floating-point operations only under
# -ffast-math or -fassociative-math, and -ffp-contract=off forbids fused
# multiply-adds, in the FMA-capable clones too. No -march: with GCC on
# x86-64 glibc, `_sa_sweep.c` builds sa_sweeps as target_clones for
# x86-64-v4, v3 and v2 and the baseline, chosen when the library loads, so
# one cached library runs vectorised on every x86-64 CPU. Measured against
# the fused scalar loop of the kernel before it, on 2 vCPUs of an AVX-512
# Xeon (BENCH_sa_simd.json): train_sa's 8 solves x0.56, scan_short's 173
# x0.59 and the paper's unpruned 84-spin solve (200 reads x 1000 sweeps)
# x0.71; built for x86-64-v2 alone x0.89-1.02, and for the baseline alone
# x1.17-1.46. Never -ffast-math, which would let the samples depend on the
# build
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def numpy_sweep(state, fields, start, nb, vals, h, rng, temps) -> None:
    """Sweeps in place over (n, reads) `state` and coupling `fields`, one per
    entry of `temps`: spins in index order, all reads at once, spin i of a
    sweep accepting with row i of that sweep's `rng.random((n, reads))`.

    A flip of spin i in a read only shifts that read's fields at i's
    neighbours nb[start[i]:start[i + 1]] by -2*s_i*vals[...], so cold sweeps
    (few accepted flips) cost O(reads) per spin instead of a full matvec.
    """
    # each spin's neighbours and couplers as columns, to broadcast over reads
    rows = [(nb[a:b, None], vals[a:b, None]) for a, b in zip(start[:-1], start[1:])]
    # where delta/temp overflows (a tiny temp) the exponent is -inf and exp 0.0
    with np.errstate(over="ignore"):
        for temp in temps:
            u = rng.random(state.shape)
            for i, s in enumerate(state):
                delta = -2.0 * s * (fields[i] + h[i])
                accept = (delta <= 0.0) | (u[i] < np.exp(-np.maximum(delta, 0.0) / temp))
                reads = np.flatnonzero(accept)
                if len(reads):
                    neighbours, v = rows[i]
                    fields[neighbours, reads] -= 2.0 * s[reads] * v
                    s[reads] *= -1.0


def numpy_fix(h, alive, start, nb, vals) -> None:
    """Fixing passes in place over the fields `h` and the (n,) bool `alive`,
    to a fixpoint. A fixed spin is dead, and its field is not touched again.

    Each pass visits its frontier (every spin first, then the neighbours the
    last pass touched) in ascending order. A live spin whose |h_i| exceeds
    the sum of |J_ij| over its live neighbours nb[start[i]:start[i + 1]],
    added in ascending order, is fixed to -sgn(h_i) and folded into those
    neighbours' fields, which join the next pass's frontier.
    """
    n = len(h)
    frontier = np.ones(n, dtype=bool)
    while frontier.any():
        touched = np.zeros(n, dtype=bool)
        for i in np.flatnonzero(frontier):
            if not alive[i]:
                continue
            row = slice(start[i], start[i + 1])
            live = alive[nb[row]]
            nbs, v = nb[row][live], vals[row][live]
            # cumsum adds in order; np.sum's pairwise order would round differently
            strength = np.cumsum(np.abs(v))[-1] if len(v) else 0.0
            if abs(h[i]) > strength:
                s = -1 if h[i] >= 0 else 1  # -sgn(h_i), sgn(0) = +1
                alive[i] = False
                h[nbs] += v * s
                touched[nbs] = True
        frontier = touched


class NumpyStreams:
    """The event streams of `dataset.generate_synthetic`: event i draws only
    from numpy's `default_rng((seed, i))`, here one generator per event i in
    [start, stop)."""

    def __init__(self, seed: int, start: int, stop: int):
        self.rngs = [np.random.default_rng((seed, i)) for i in range(start, stop)]

    def head(self, signal_fraction: float) -> np.ndarray:
        """Each stream's class uniform u, then its process uniform if u >=
        `signal_fraction` (a background event): the process uniforms, NaN for
        signal events."""
        u_bg = np.full(len(self.rngs), np.nan)
        for r, rng in enumerate(self.rngs):
            if rng.random() >= signal_fraction:
                u_bg[r] = rng.random()
        return u_bg

    def values(self, proc, means, facs, lo, hi, cap):
        """Each stream's Gaussian attempts, len(lo) standard normals z each,
        up to the first whose value lies inside [lo, hi] in every variable;
        the attempt of index `cap` is taken unchecked. Stream r's attempts
        are of model m = proc[r], with the value x_i = means[m, i] +
        (facs[m, i, 0] z_0 + facs[m, i, 1] z_1 + ...), summed in j order from
        the first product. Returns the values, stacked."""
        x = np.empty((len(self.rngs), len(lo)))
        pending, t = np.arange(len(self.rngs)), 0
        while len(pending):
            z = np.empty((len(pending), len(lo)))
            for out, r in zip(z, pending.tolist()):
                self.rngs[r].standard_normal(out=out)
            fac = facs[proc[pending]]
            s = fac[:, :, 0] * z[:, :1]
            for j in range(1, len(lo)):
                s += fac[:, :, j] * z[:, j:j + 1]
            xp = x[pending] = means[proc[pending]] + s
            inside = ((lo <= xp) & (xp <= hi)).all(axis=1) | (t >= cap)
            pending, t = pending[~inside], t + 1
        return x


def _library() -> Path:
    """The cached compiled library, built first if it is missing."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    archives = [path for path in (ARCHIVE, NPYMATH) if path.is_file()]
    # the compiler is identified by its binary, not by running it: a child
    # process on every import would count in the caller's resource usage.
    # numpy's archives are in the key, so a numpy upgrade builds a new library
    binary = os.path.realpath(compiler)
    st = os.stat(binary)
    key = hashlib.sha256(b"\0".join([
        SOURCE.read_bytes(), STREAMS_SOURCE.read_bytes(), HEADER.read_bytes(),
        " ".join(CFLAGS).encode(),
        f"{binary}:{st.st_size}:{st.st_mtime_ns}".encode(),
        *(path.read_bytes() for path in archives),
    ])).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qamlz"
    lib = cache / f"sa_sweep-{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".{lib.name}.{os.getpid()}.tmp"
    build = [compiler, *CFLAGS, "-o", str(tmp), str(SOURCE)]
    try:
        if ARCHIVE not in archives or not _links(
                [*build, str(STREAMS_SOURCE), *map(str, archives), "-lm"], tmp):
            # the loops of _sa_sweep.c alone, cached under the same key, so
            # that an archive which does not link is not tried again
            subprocess.run([*build, "-lm"], check=True, capture_output=True, timeout=120)
        os.replace(tmp, lib)
    finally:
        tmp.unlink(missing_ok=True)
    return lib


def _links(build: list[str], out: Path) -> bool:
    """Whether `build` writes a library to `out` that loads: a shared library
    links with symbols left unresolved, and then fails to load."""
    if subprocess.run(build, capture_output=True, timeout=120).returncode:
        return False
    try:
        ctypes.CDLL(str(out))
    except OSError:
        return False
    return True


def _check_rows(start, nb, vals, n) -> None:
    """The C loops write through nb[k] for k in [start[0], start[n])."""
    if not (start.shape == (n + 1,) and start[0] == 0 and (np.diff(start) >= 0).all()
            and nb.shape == vals.shape == (start[-1],) and ((0 <= nb) & (nb < n)).all()):
        raise ValueError("neighbour arrays are not compressed sparse rows over the spins")


try:
    _LIB = ctypes.CDLL(str(_library()))
except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
    print(f"qamlz: compiled SA sweep, fixing loop and event streams unavailable ({exc}); "
          "using the numpy sweep and fixing loop and a numpy generator per event",
          file=sys.stderr)
    _LIB = None

# the arrays the C functions take, as ctypes checks them: dtype, rank, layout
# and whether the function writes them
_out = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
_index = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_written = dict(ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_words = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
_floats = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
if _LIB is not None:
    _LIB.sa_sweeps.argtypes = [
        _out, _out, _index, _index, _vector, _vector,
        np.ctypeslib.ndpointer(np.uint64, shape=(4,), flags="C_CONTIGUOUS,WRITEABLE"),
        _vector, *[np.ctypeslib.ndpointer(dtype, **_written)
                   for dtype in (np.int64, np.float64, np.float64, np.int64)],
        ctypes.c_long, ctypes.c_long, ctypes.c_long]
    _LIB.fix_frontier.argtypes = [np.ctypeslib.ndpointer(np.float64, **_written),
                                  np.ctypeslib.ndpointer(np.bool_, **_written),
                                  np.ctypeslib.ndpointer(np.uint8, **_written),
                                  _index, _index, _vector, ctypes.c_long]
    _LIB.sa_sweeps.restype = _LIB.fix_frontier.restype = None
    # the streams are in the library only where it linked numpy's archive
    if hasattr(_LIB, "stream_seed"):
        _LIB.stream_seed.argtypes = [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_long, _words]
        _LIB.stream_head.argtypes = [_words, ctypes.c_long, ctypes.c_double, _floats]
        _LIB.stream_values.argtypes = [
            _words, _index, ctypes.c_long, _floats, _floats, ctypes.c_long, _vector, _vector,
            ctypes.c_int64, _floats, _floats]
        _LIB.stream_seed.restype = _LIB.stream_head.restype = _LIB.stream_values.restype = None
    else:
        print(f"qamlz: compiled event streams unavailable ({ARCHIVE} is missing or does not "
              "link); using a numpy generator per event", file=sys.stderr)


def compiled_sweep(state, fields, start, nb, vals, h, rng, temps) -> None:
    """`numpy_sweep` in C: `sa_sweeps` draws from and advances `rng`'s PCG64."""
    n, reads = state.shape
    if not (fields.shape == (n, reads) and h.shape == (n,) and start.shape == (n + 1,)):
        raise ValueError("sweep arrays disagree in shape")
    _check_rows(start, nb, vals, n)
    # a hot sweep subtracts 0.0 * v from rejected reads' fields: NaN for an infinite v
    if not np.isfinite(vals).all():
        raise ValueError("couplers are not finite")
    doc = rng.bit_generator.state
    if doc["bit_generator"] != "PCG64":
        raise ValueError(f"the compiled sweep draws from PCG64, not {doc['bit_generator']}")
    pcg = doc["state"]
    lo = (1 << 64) - 1
    # the 128-bit state and increment as (state hi, state lo, inc hi, inc lo)
    w = np.array([pcg["state"] >> 64, pcg["state"] & lo, pcg["inc"] >> 64, pcg["inc"] & lo],
                 dtype=np.uint64)
    # scratch of one spin row: accepted reads, mask, uniforms and decisions
    _LIB.sa_sweeps(state, fields, start, nb, vals, h, w, temps,
                   np.empty(reads, dtype=np.int64), np.empty(reads), np.empty(reads),
                   np.empty(reads, dtype=np.int64), len(temps), reads, n)
    pcg["state"] = int(w[0]) << 64 | int(w[1])
    rng.bit_generator.state = doc


def compiled_fix(h, alive, start, nb, vals) -> None:
    """`numpy_fix` in C (`fix_frontier`)."""
    n = len(h)
    if not (h.shape == alive.shape == (n,) and start.shape == (n + 1,)):
        raise ValueError("fixing arrays disagree in shape")
    _check_rows(start, nb, vals, n)
    _LIB.fix_frontier(h, alive, np.empty(n, dtype=np.uint8), start, nb, vals, n)


class CompiledStreams:
    """`NumpyStreams`'s draws, from each stream's PCG64 state held as four
    uint64 `words`: state hi, state lo, inc hi, inc lo."""

    def __init__(self, seed: int, start: int, stop: int):
        if not (0 <= seed < 2**64 and 0 <= start <= stop <= 2**64):
            raise ValueError("stream keys are not 64-bit integers")
        self.words = np.empty((stop - start, 4), dtype=np.uint64)
        _LIB.stream_seed(seed, start, stop - start, self.words)

    def _count(self) -> int:
        n = len(self.words)
        if not (self.words.dtype == np.uint64 and self.words.shape == (n, 4)):
            raise ValueError("stream words are not (n, 4) uint64")
        return n

    def head(self, signal_fraction):
        u_bg = np.empty(self._count())
        _LIB.stream_head(self.words, len(u_bg), signal_fraction, u_bg)
        return u_bg

    def values(self, proc, means, facs, lo, hi, cap):
        """`NumpyStreams.values`, each stream's attempts drawn, computed and
        tested in C (`stream_values`)."""
        n = self._count()
        if not (proc.dtype == np.int64 and proc.shape == (n,)
                and ((0 <= proc) & (proc < len(means))).all()):
            raise ValueError("model indices are not int64 indices of the models, one per stream")
        k = len(lo)
        if not (means.shape == (len(means), k) and facs.shape == (len(means), k, k)
                and lo.shape == hi.shape == (k,)):
            raise ValueError("models and bounds disagree in shape")
        x = np.empty((n, k))
        _LIB.stream_values(self.words, proc, n, means, facs, k, lo, hi, cap, np.empty(k), x)
        return x


SWEEP = numpy_sweep if _LIB is None else compiled_sweep
FIX = numpy_fix if _LIB is None else compiled_fix
STREAMS = CompiledStreams if hasattr(_LIB, "stream_seed") else NumpyStreams
