"""The compiled Metropolis sweep against the numpy reference, and the build
and fallback paths of `qamlz._sweep`."""

import ctypes
import ctypes.util
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qamlz import (AnnealSchedule, ChainConfig, ConfigError, IsingProblem, _sweep,
                   default_generator_spec, prune,
                   solve_chain_emulated, solve_sa)

from conftest import (make_problem, random_problem, reference_fix_variables,
                      reference_generate_synthetic)

SRC = Path(__file__).resolve().parents[1] / "src"
HAVE_CC = shutil.which("cc") is not None


def _compiled_and_reference(monkeypatch, solve, *args, **kw):
    """`solve` run with the sweep loaded at import, then with numpy's."""
    if HAVE_CC:
        assert _sweep.SWEEP is not _sweep.numpy_sweep, "cc is on PATH but the kernel did not load"
    compiled = solve(*args, **kw)
    with monkeypatch.context() as m:
        m.setattr(_sweep, "SWEEP", _sweep.numpy_sweep)
        reference = solve(*args, **kw)
    return compiled, reference


def _assert_same(a, b):
    np.testing.assert_array_equal(a.spins, b.spins)
    np.testing.assert_array_equal(a.energies, b.energies)
    assert a.broken_chain_fraction == b.broken_chain_fraction


@pytest.mark.parametrize("n", [0, 1, 2, 7, 84, 132])
def test_kernel_matches_numpy_sweep(monkeypatch, n):
    rng = np.random.default_rng(n)
    problems = [random_problem(rng, n, coupler_density=0.3),
                random_problem(rng, n, coupler_density=1.0 if n < 20 else 0.1, scale=0.01)]
    for k, (reads, sweeps) in enumerate([(r, s) for r in (1, 16, 100) for s in (2, 10, 200)]):
        for seed in (k, (n, 3, k)):
            p = problems[k % 2]
            sched = AnnealSchedule(n_reads=reads, sweeps=sweeps)
            _assert_same(*_compiled_and_reference(monkeypatch, solve_sa, p, sched, seed=seed))


def test_kernel_matches_numpy_sweep_given_gauge(monkeypatch):
    rng = np.random.default_rng(5)
    sched = AnnealSchedule(n_reads=16, sweeps=50)
    gauge = rng.choice([-1, 1], size=7)
    kept = gauge.copy()
    for p in (random_problem(rng, 7), make_problem(rng.uniform(-1, 1, size=7), {})):
        results = []
        for given in (gauge, gauge.astype(np.int8), gauge.astype(np.float64)):
            compiled, reference = _compiled_and_reference(monkeypatch, solve_sa, p, sched,
                                                          seed=2, gauge=given)
            _assert_same(compiled, reference)
            results.append(compiled)
        for other in results[1:]:
            _assert_same(results[0], other)
    np.testing.assert_array_equal(gauge, kept)


def test_kernel_matches_numpy_sweep_in_chain_emulation(monkeypatch):
    p = random_problem(np.random.default_rng(9), 6)
    sched = AnnealSchedule(n_reads=20, sweeps=100)
    compiled, reference = _compiled_and_reference(
        monkeypatch, solve_chain_emulated, p, ChainConfig(length=3, strength=0.5), sched, seed=4)
    _assert_same(compiled, reference)
    assert compiled.broken_chain_fraction > 0  # the chains do break, so decoding is exercised


def _sparse_problem(rng, n, cutoff_pct, scale=1.0):
    """A pruned random problem with some kept couplers stored as 0.0 and
    spin 0 left without neighbours."""
    p = prune(random_problem(rng, n, scale=scale), cutoff_pct)
    kept = (p.pairs != 0).all(axis=1)
    values = p.values[kept]
    values[::7] = 0.0
    return IsingProblem(h=p.h, pairs=p.pairs[kept], values=values)


@pytest.mark.parametrize("sweeps", [2, 17, 200])
@pytest.mark.parametrize("n, reads", [(84, 100), (30, 7), (12, 3)])
def test_kernel_matches_numpy_sweep_on_pruned_problems(monkeypatch, n, reads, sweeps):
    rng = np.random.default_rng(n * 1000 + sweeps)
    sched = AnnealSchedule(n_reads=reads, sweeps=sweeps)
    for cutoff_pct, scale in [(85.0, 1.0), (95.0, 2.0 ** -5), (50.0, 0.01)]:
        p = _sparse_problem(rng, n, cutoff_pct, scale)
        start, _, vals = p.neighbours()
        assert start[1] == 0 and (vals == 0.0).any()
        _assert_same(*_compiled_and_reference(monkeypatch, solve_sa, p, sched, seed=(n, sweeps)))


def test_kernel_matches_numpy_sweep_past_exp_underflow(monkeypatch):
    # at t_cold = 1e-9 a flip costing more than 7.46e-7 has -delta/temp below
    # -746, where the C sweep rejects without calling exp; below 2^-1024
    # (1e-309, 1e-320) 1/temp overflows and the C sweep's bounds decide nothing
    rng = np.random.default_rng(13)
    problems = (_sparse_problem(rng, 40, 85.0), random_problem(rng, 12, scale=2.0 ** -10))
    for t_cold in (1e-9, 1e-309, 1e-320):
        sched = AnnealSchedule(n_reads=50, sweeps=60, t_cold=t_cold)
        for p in problems:
            compiled, reference = _compiled_and_reference(monkeypatch, solve_sa, p, sched, seed=6)
            _assert_same(compiled, reference)
            s = compiled.spins.astype(np.float64)
            delta = -2.0 * s * (s @ p.dense_couplers() + p.h)  # each single flip's cost
            assert (delta > 746.0 * sched.t_cold).mean() > 0.5


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_exp_bounds_decide_as_libm_exp():
    # the sweep's own decision code, through its C wrapper
    # metropolis_decisions: for spins s = -1/2, fields f = delta and h = 0 the
    # sweep's flip cost -2*s*(f + h) is delta exactly, and a flip must be
    # accepted exactly when u < exp(-delta/temp). y = delta/temp runs from
    # 1e-12 to just below the cut at 746, densely where y^4/24, the gap
    # between the bounds and e^-y, passes the rounding of P and L (near 1e-4)
    # and their margins (near 0.01), and where L(y) = 0 (1.596); u is libm's
    # exp(-delta/temp) and the two doubles on either side of it. The bounds
    # take y as delta*(1/temp), which rounds apart from delta/temp; below
    # temp = 2^-1024 (1e-309) 1/temp overflows
    assert _sweep.SWEEP is not _sweep.numpy_sweep, "cc is on PATH but the kernel did not load"
    decide = ctypes.CDLL(str(_sweep._library())).metropolis_decisions
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    decide.restype = None
    decide.argtypes = [vector, vector, ctypes.c_double, vector, ctypes.c_long, ctypes.c_double,
                       np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")]
    exp = ctypes.CDLL(ctypes.util.find_library("m")).exp
    exp.restype, exp.argtypes = ctypes.c_double, [ctypes.c_double]
    y = np.unique(np.concatenate([np.geomspace(1e-12, 745.9, 4000),
                                  np.geomspace(1e-5, 0.1, 6000),
                                  np.linspace(1.55, 1.65, 2000)]))
    for temp in (1.0, 3.0, 1e-9, 1e-309):
        delta = y * temp
        e = np.array([exp(v) for v in (-delta / temp).tolist()])
        below, above = np.nextafter(e, -1.0), np.nextafter(e, 1.0)
        u = np.column_stack([np.nextafter(below, -1.0), below, e, above, np.nextafter(above, 1.0)])
        keep = (0.0 <= u) & (u < 1.0)
        uniforms, want = u[keep], (u < e[:, None])[keep]
        accepted = np.empty(len(uniforms), dtype=np.int64)
        decide(np.full(len(uniforms), -0.5),
               np.ascontiguousarray(np.broadcast_to(delta[:, None], u.shape)[keep]), 0.0,
               uniforms, len(uniforms), temp, accepted)
        np.testing.assert_array_equal(accepted, want, err_msg=f"temp {temp}")
        assert want.any() and not want.all()


def test_block_draw_equals_per_sweep_draws():
    # one call over a block of sweeps draws what one call per sweep draws:
    # equal samples, and the generator left at the same place
    p = _sparse_problem(np.random.default_rng(3), 30, 50.0)
    reads = 11
    temps = AnnealSchedule(n_reads=reads, sweeps=15).ladder(p)
    init = np.random.default_rng(6).choice([-1.0, 1.0], size=(p.n_spins, reads))
    for sweep in {_sweep.SWEEP, _sweep.numpy_sweep}:
        runs = []
        for blocks in ([temps], [temps[i:i + 1] for i in range(len(temps))]):
            state = init.copy()
            fields = np.ascontiguousarray((state.T @ p.dense_couplers()).T)
            rng = np.random.default_rng((1, 7))
            for block in blocks:
                sweep(state, fields, *p.neighbours(), p.h, rng, np.ascontiguousarray(block))
            runs.append((state, fields, rng.bit_generator.state, rng.random()))
        (state, fields, *rest), (ref_state, ref_fields, *ref_rest) = runs
        np.testing.assert_array_equal(state, ref_state)
        np.testing.assert_array_equal(fields, ref_fields)
        assert rest == ref_rest
        assert (state != init).any()


def test_solve_sa_calls_the_sweep_once_per_block(monkeypatch):
    # the block is the whole ladder: one call per solve, where a ladder of
    # this size was once split into 14 calls of at most 1 MiB of uniforms
    calls = []

    def recording(state, fields, start, nb, vals, h, rng, temps):
        calls.append((rng.bit_generator.state, temps.copy()))
        _sweep.numpy_sweep(state, fields, start, nb, vals, h, rng, temps)

    p = _sparse_problem(np.random.default_rng(2), 84, 85.0)
    sched = AnnealSchedule(n_reads=100, sweeps=200)
    with monkeypatch.context() as m:
        m.setattr(_sweep, "SWEEP", recording)
        recorded = solve_sa(p, sched, seed=1)
    assert len(calls) == 1  # the whole ladder, from the read batch's own stream
    state, temps = calls[0]
    assert state == np.random.default_rng((1, 1)).bit_generator.state
    np.testing.assert_array_equal(temps, sched.ladder(p))
    _assert_same(recorded, solve_sa(p, sched, seed=1))


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("key", [(1, 7), (1, 2**64 - 1), (1, 7, 3, 0, 2)])
def test_compiled_sweep_draws_the_generators_stream(key):
    # equal generators, the 32-bit buffer of each full: equal sweeps, and
    # each generator left where the numpy sweep's per-sweep draws leave it
    assert _sweep.SWEEP is not _sweep.numpy_sweep, "cc is on PATH but the kernel did not load"
    p = _sparse_problem(np.random.default_rng(4), 30, 50.0)
    reads = 9
    temps = AnnealSchedule(n_reads=reads, sweeps=20).ladder(p)
    init = np.random.default_rng(5).choice([-1.0, 1.0], size=(p.n_spins, reads))
    runs = []
    for sweep in (_sweep.SWEEP, _sweep.numpy_sweep):
        state = init.copy()
        fields = np.ascontiguousarray((state.T @ p.dense_couplers()).T)
        rng = np.random.default_rng(key)
        rng.integers(2**32, dtype=np.uint32, size=3)
        sweep(state, fields, *p.neighbours(), p.h, rng, temps)
        runs.append((state, fields, rng.bit_generator.state,
                     rng.integers(2**32, dtype=np.uint32), rng.random()))
    (state, fields, *rest), (ref_state, ref_fields, *ref_rest) = runs
    np.testing.assert_array_equal(state, ref_state)
    np.testing.assert_array_equal(fields, ref_fields)
    assert rest == ref_rest
    assert (state != init).any()


def test_neighbour_rows_built_once_and_read_only():
    p = IsingProblem(h=np.zeros(5), pairs=[[0, 3], [1, 3], [1, 4], [3, 4]],
                     values=[1.5, 0.0, -2.0, 0.25])
    csr = p.neighbours()
    assert p.neighbours() is csr
    start, nb, vals = csr
    np.testing.assert_array_equal(start, [0, 1, 3, 3, 6, 8])
    np.testing.assert_array_equal(nb, [3, 3, 4, 0, 1, 4, 1, 3])
    np.testing.assert_array_equal(vals, [1.5, 0.0, -2.0, 1.5, 0.0, 0.25, -2.0, 0.25])
    for arr in csr:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_rejects_disagreeing_arrays():
    reads, n = 3, 2
    state, fields, h = np.ones((n, reads)), np.zeros((n, reads)), np.zeros(n)
    start, nb, vals = np.array([0, 1, 2]), np.array([1, 0]), np.array([0.5, 0.5])

    def sweep(**over):
        args = dict(state=state, fields=fields, start=start, nb=nb, vals=vals, h=h,
                    rng=np.random.default_rng(0), temps=np.ones(4))
        _sweep.SWEEP(**{**args, **over})

    sweep()
    for over in [dict(start=np.array([0, 2])), dict(state=np.ones((reads, n))),
                 dict(state=state.T), dict(fields=np.zeros((reads, n)))]:
        with pytest.raises(ValueError, match="disagree in shape"):
            sweep(**over)
    # the C loop steps PCG64 itself: another bit generator is refused
    with pytest.raises(ValueError, match="draws from PCG64, not MT19937"):
        sweep(rng=np.random.Generator(np.random.MT19937(0)))
    for over in [dict(start=np.array([1, 1, 2])), dict(start=np.array([0, 2, 1])),
                 dict(nb=np.array([1, 2])), dict(nb=np.array([-1, 0])),
                 dict(nb=np.array([1])), dict(vals=np.array([0.5]))]:
        with pytest.raises(ValueError, match="not compressed sparse rows"):
            sweep(**over)
    # the C loop walks rows: column-major is refused, and so are other dtypes
    for over in [dict(state=np.asfortranarray(state)), dict(h=h.astype(np.float32)),
                 dict(nb=nb.astype(np.int32))]:
        with pytest.raises(ctypes.ArgumentError):
            sweep(**over)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kernel_refuses_non_finite_couplers(bad):
    # a hot sweep updates rejected reads by 0.0 * v, which is NaN for an
    # infinite v; IsingProblem refuses such couplers before any sweep
    state, fields = np.ones((2, 4)), np.zeros((2, 4))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="couplers are not finite"):
        _sweep.compiled_sweep(state, fields, np.array([0, 1, 2]), np.array([1, 0]),
                              np.array([0.5, bad]), np.zeros(2), rng, np.ones(3))
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    with pytest.raises(ConfigError, match="couplers must be finite"):
        IsingProblem(h=np.zeros(2), pairs=[[0, 1]], values=[bad])


def _accept_counts(state, fields, start, nb, vals, h, seed, temps):
    """m[b, i], the number of reads that flip spin i in sweep b of
    `numpy_sweep`, run one sweep per call (which visits each spin once) from
    copies of `state` and `fields` with `default_rng(seed)`."""
    state, fields, rng = state.copy(), fields.copy(), np.random.default_rng(seed)
    counts = []
    for b in range(len(temps)):
        before = state.copy()
        _sweep.numpy_sweep(state, fields, start, nb, vals, h, rng, temps[b:b + 1])
        counts.append((state != before).sum(axis=1))
    return np.array(counts)


def _build_sweep(out: Path, *flags: str) -> ctypes.CDLL:
    """`_sa_sweep.c` built to `out` with CFLAGS and then `flags` (a later -O
    wins), its sa_sweeps typed as SWEEP's."""
    subprocess.run(["cc", *_sweep.CFLAGS, *flags, "-o", str(out), str(_sweep.SOURCE), "-lm"],
                   check=True, capture_output=True, timeout=120)
    lib = ctypes.CDLL(str(out))
    lib.sa_sweeps.argtypes, lib.sa_sweeps.restype = _sweep._LIB.sa_sweeps.argtypes, None
    return lib


def _two_path_case(reads):
    """An unpruned 84-spin problem's neighbour rows and h, a start state and
    its fields, and a ladder of very hot sweeps (nearly every read accepts:
    whole-row updates) and then cooler ones (fewer: the accepted list). Most
    couplers are 0.0 and the rest +-1/4, so many fields are exactly zero,
    and each zero field starts as -0.0."""
    rng = np.random.default_rng(reads)
    n = 84
    pairs = [[a, b] for a in range(n) for b in range(a + 1, n)]
    p = IsingProblem(h=rng.integers(-4, 5, size=n) / 4, pairs=pairs,
                     values=rng.choice([-0.25, 0.0, 0.25], p=[0.1, 0.8, 0.1], size=len(pairs)))
    temps = np.concatenate([[1e9] * 3, np.geomspace(8.0, 0.05, 40)])
    init = rng.choice([-1.0, 1.0], size=(n, reads))
    fields0 = np.ascontiguousarray((init.T @ p.dense_couplers()).T)
    fields0[fields0 == 0.0] = -0.0
    assert (fields0 == 0.0).mean() > 0.05
    return (*p.neighbours(), p.h), init, fields0, temps


def _sweeps_keep_the_bits(monkeypatch, reads, library):
    """sa_sweeps of `library`, SWEEP and numpy_sweep on `_two_path_case`:
    `library` and SWEEP agree byte for byte, the sign of a zero field
    included; against the reference, states and draws are equal and fields
    equal as numbers, their signs apart only where they are zero."""
    args, init, fields0, temps = _two_path_case(reads)
    runs = []
    for sweep, lib in [(_sweep.compiled_sweep, library), (_sweep.SWEEP, _sweep._LIB),
                       (_sweep.numpy_sweep, None)]:
        state, fields, gen = init.copy(), fields0.copy(), np.random.default_rng(1)
        with monkeypatch.context() as patch:
            patch.setattr(_sweep, "_LIB", lib)
            sweep(state, fields, *args, gen, temps)
        runs.append((state, fields, gen.bit_generator.state))
    (lib_state, lib_fields, lib_gen), (built, built_fields, built_gen), ref_run = runs
    np.testing.assert_array_equal(lib_state, built)
    assert lib_fields.tobytes() == built_fields.tobytes() and lib_gen == built_gen
    ref, ref_fields, ref_gen = ref_run
    np.testing.assert_array_equal(built, ref)
    assert built_gen == ref_gen
    np.testing.assert_array_equal(built_fields, ref_fields)
    apart = np.signbit(built_fields) != np.signbit(ref_fields)
    assert (built_fields[apart] == 0.0).all()
    assert (built != init).any()


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("reads", [1, 3, 4, 5, 8, 100])
def test_build_flags_and_both_update_paths_keep_the_bits(monkeypatch, tmp_path, reads):
    # the kernel built at -O0, SWEEP (built at CFLAGS) and numpy_sweep on
    # _two_path_case, with accept counts m on both sides of reads / 4 and on
    # it. The uniforms are drawn four states at a time with the rest one by
    # one: reads 1, 3 and 5 draw such a tail in every row
    args, init, fields0, temps = _two_path_case(reads)
    m = _accept_counts(init, fields0, *args, 1, temps)
    assert (m[:3] == reads).mean() > 0.9 and (4 * m > reads).any()
    if reads in (4, 8, 100):
        assert (4 * m == reads).any()  # the boundary takes the list
    if reads >= 5:
        assert ((0 < m) & (4 * m < reads)).any()
    _sweeps_keep_the_bits(monkeypatch, reads, _build_sweep(tmp_path / "sa_sweep_O0.so", "-O0"))


#: the CPU flags each x86-64 level adds to the one before (as /proc/cpuinfo
#: names them: abm is lzcnt); a level runs where the CPU has its flags and
#: those of every level below it
_LEVELS = {
    "x86-64": [],
    "x86-64-v2": ["cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3"],
    "x86-64-v3": ["avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"],
    "x86-64-v4": ["avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"],
}


def _cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("level", list(_LEVELS))
def test_each_isa_clone_keeps_the_bits(monkeypatch, tmp_path, level):
    # sa_sweeps is built as one clone per x86-64 level; here each level is
    # built alone, with the clones compiled out, at CFLAGS, and checked
    # against SWEEP (the clone this CPU loads) and numpy_sweep on the cases
    # of test_build_flags_and_both_update_paths_keep_the_bits. A level this
    # CPU cannot run is skipped, never run
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"{level} is an x86-64 level and this host is {platform.machine()}")
    names = list(_LEVELS)
    wanted = [flag for below in names[:names.index(level) + 1] for flag in _LEVELS[below]]
    lacking = [flag for flag in wanted if flag not in _cpu_flags()]
    if lacking:
        pytest.skip(f"the CPU lacks {' '.join(lacking)}, which {level} needs")
    lib = _build_sweep(tmp_path / f"sa_sweep_{level}.so", "-DQAMLZ_NO_CLONES", f"-march={level}")
    for reads in (1, 3, 4, 5, 8, 100):
        _sweeps_keep_the_bits(monkeypatch, reads, lib)


# ---------------------------------------------------------------------------
# Build and fallback, each in a fresh interpreter
# ---------------------------------------------------------------------------

_SOLVE = """
import json, sys
import numpy as np
from qamlz import AnnealSchedule, IsingProblem, solve_sa, _sweep
doc = json.loads(sys.argv[1])
p = IsingProblem(h=doc["h"], pairs=[[i, j] for i, j, _ in doc["J"]],
                 values=[v for _, _, v in doc["J"]])
res = solve_sa(p, AnnealSchedule(n_reads=16, sweeps=50), seed=3)
print(json.dumps({"compiled": _sweep.SWEEP is not _sweep.numpy_sweep,
                  "spins": res.spins.tolist(), "energies": res.energies.tolist()}))
"""


def _env(cache: Path, **over) -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(cache), **over}


_FIX = """
import json, sys
from qamlz import IsingProblem, fix_variables, _sweep
doc = json.loads(sys.argv[1])
p = IsingProblem(h=doc["h"], pairs=[[i, j] for i, j, _ in doc["J"]],
                 values=[v for _, _, v in doc["J"]])
fixed, reduced = fix_variables(p)
print(json.dumps({"compiled": _sweep.FIX is not _sweep.numpy_fix,
                  "fixed": fixed.tolist(), "dtype": str(fixed.dtype),
                  "h": repr(reduced.to_dict()["h"]), "J": repr(reduced.to_dict()["J"])}))
"""

_FALLBACKS = ["no compiler on PATH", "cache is not a directory"]


def _run_without_kernel(tmp_path, case, script, *args) -> dict:
    """stdout of `script` in a fresh interpreter that cannot build the
    library, checking the one stderr line that says so."""
    cache = tmp_path / "cache"
    if case == "no compiler on PATH":
        (tmp_path / "bin").mkdir()
        env = _env(cache, PATH=str(tmp_path / "bin"))
    else:
        cache.write_text("")
        env = _env(cache)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "using the numpy sweep and fixing loop" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    got = json.loads(proc.stdout)
    assert not got["compiled"]
    return got


@pytest.mark.parametrize("case", _FALLBACKS)
def test_fallback_gives_reference_samples(monkeypatch, tmp_path, case):
    p = random_problem(np.random.default_rng(1), 9)
    with monkeypatch.context() as m:
        m.setattr(_sweep, "SWEEP", _sweep.numpy_sweep)
        want = solve_sa(p, AnnealSchedule(n_reads=16, sweeps=50), seed=3)
    got = _run_without_kernel(tmp_path, case, _SOLVE, json.dumps(p.to_dict()))
    np.testing.assert_array_equal(got["spins"], want.spins)
    np.testing.assert_array_equal(got["energies"], want.energies)


@pytest.mark.parametrize("case", _FALLBACKS)
def test_fallback_gives_reference_fixing(tmp_path, case):
    rng = np.random.default_rng(8)
    h = rng.uniform(-1.0, 1.0, size=30) * rng.choice([0.5, 6.0], size=30)
    p = prune(random_problem(rng, 30, coupler_density=0.4), 60.0)
    p = IsingProblem(h=h, pairs=p.pairs, values=p.values)
    ref_fixed, ref_h, ref_j = reference_fix_variables(p)
    assert 0 < np.count_nonzero(ref_fixed) < p.n_spins
    got = _run_without_kernel(tmp_path, case, _FIX, json.dumps(p.to_dict()))
    assert (got["fixed"], got["dtype"]) == (ref_fixed.tolist(), "int8")
    assert (got["h"], got["J"]) == (repr(ref_h), repr(ref_j))


_IMPORT_AT_GO = """
import os, sys, time
import numpy
while not os.path.exists(sys.argv[1]):
    time.sleep(0.001)
from qamlz import _sweep
print(_sweep.SWEEP is not _sweep.numpy_sweep)
"""


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_concurrent_cold_builds_leave_one_library(tmp_path):
    go = tmp_path / "go"
    env = _env(tmp_path / "cache")
    procs = [subprocess.Popen([sys.executable, "-c", _IMPORT_AT_GO, str(go)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    time.sleep(0.5)  # both interpreters start and import numpy, then build at once
    go.touch()
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    assert [out.strip() for out, _ in outs] == ["True", "True"]
    left = os.listdir(tmp_path / "cache" / "qamlz")
    assert len(left) == 1 and left[0].endswith(".so"), left


_GENERATE = """
import json, sys
import numpy as np
np.__file__ = sys.argv[1]  # numpy's archives are looked for under its directory
from qamlz import _sweep, default_generator_spec, generate_synthetic
print(json.dumps({"sweep": _sweep.SWEEP is not _sweep.numpy_sweep,
                  "fix": _sweep.FIX is not _sweep.numpy_fix,
                  "streams": _sweep.STREAMS is not _sweep.NumpyStreams,
                  "csv": generate_synthetic(default_generator_spec(), 1500, 11).to_csv()}))
"""


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("archive", [None, b"", b"!<arch>\nnot an archive member\n"])
def test_archive_missing_or_unlinkable_keeps_sa_compiled(tmp_path, archive):
    fake_numpy = tmp_path / "numpy"
    (fake_numpy / "random" / "lib").mkdir(parents=True)
    if archive is not None:
        (fake_numpy / "random" / "lib" / "libnpyrandom.a").write_bytes(archive)
    want = reference_generate_synthetic(default_generator_spec(), 1500, 11).to_csv()
    for _ in range(2):  # the build, then the cached library
        proc = subprocess.run([sys.executable, "-c", _GENERATE, str(fake_numpy / "__init__.py")],
                              env=_env(tmp_path / "cache"), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "compiled event streams unavailable" in lines[0], lines
        got = json.loads(proc.stdout)
        assert (got["sweep"], got["fix"], got["streams"]) == (True, True, False)
        assert got["csv"] == want
    assert len(os.listdir(tmp_path / "cache" / "qamlz")) == 1


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cache_key_follows_the_archive_bytes(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(_sweep.ARCHIVE.read_bytes())
    monkeypatch.setattr(_sweep, "ARCHIVE", archive)
    libs = [_sweep._library()]
    with archive.open("ab") as f:
        f.write(b"\n")  # one byte more: a numpy upgrade, say
    libs.append(_sweep._library())
    archive.unlink()
    libs.append(_sweep._library())
    assert len(set(libs)) == 3 and all(lib.exists() for lib in libs)
    assert hasattr(ctypes.CDLL(str(libs[0])), "stream_seed")
    assert not hasattr(ctypes.CDLL(str(libs[2])), "stream_seed")


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cache_key_follows_the_header_bytes(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for name in ("SOURCE", "STREAMS_SOURCE", "HEADER"):  # built from copies side by side
        copy = tmp_path / getattr(_sweep, name).name
        copy.write_bytes(getattr(_sweep, name).read_bytes())
        monkeypatch.setattr(_sweep, name, copy)
    libs = [_sweep._library()]
    with _sweep.HEADER.open("ab") as f:
        f.write(b"\n")  # the PCG64 that both sources include, edited
    libs.append(_sweep._library())
    assert len(set(libs)) == 2 and all(lib.exists() for lib in libs)
