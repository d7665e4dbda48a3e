"""The compiled Metropolis sweep against the numpy reference, and the build
and fallback paths of `qamlz._sweep`."""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qamlz import AnnealSchedule, ChainConfig, _sweep, solve_chain_emulated, solve_sa

from conftest import make_problem, random_problem

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


def test_kernel_matches_numpy_sweep_given_init(monkeypatch):
    rng = np.random.default_rng(5)
    sched = AnnealSchedule(n_reads=16, sweeps=50)
    init = rng.choice([-1.0, 1.0], size=(16, 7))
    kept = init.copy()
    for p in (random_problem(rng, 7), make_problem(rng.uniform(-1, 1, size=7), {})):
        results = []
        for given in (init, np.asfortranarray(init), init.astype(np.int8)):
            compiled, reference = _compiled_and_reference(monkeypatch, solve_sa, p, sched,
                                                          seed=2, init=given)
            _assert_same(compiled, reference)
            results.append(compiled)
        for other in results[1:]:
            _assert_same(results[0], other)
    np.testing.assert_array_equal(init, kept)  # the anneal works on a copy


def test_kernel_matches_numpy_sweep_in_chain_emulation(monkeypatch):
    p = random_problem(np.random.default_rng(9), 6)
    sched = AnnealSchedule(n_reads=20, sweeps=100)
    compiled, reference = _compiled_and_reference(
        monkeypatch, solve_chain_emulated, p, ChainConfig(length=3, strength=0.5), sched, seed=4)
    _assert_same(compiled, reference)
    assert compiled.broken_chain_fraction > 0  # the chains do break, so decoding is exercised


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_rejects_disagreeing_arrays():
    state, fields = np.ones((3, 2)), np.zeros((3, 2))
    j_sym, h, uniforms = np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3))
    with pytest.raises(ValueError, match="disagree in shape"):
        _sweep.SWEEP(state, fields, j_sym, h, np.zeros((3, 2)), 1.0)
    with pytest.raises(ctypes.ArgumentError):  # the C loop walks rows: column-major is refused
        _sweep.SWEEP(np.asfortranarray(state), fields, j_sym, h, uniforms, 1.0)
    with pytest.raises(ctypes.ArgumentError):
        _sweep.SWEEP(state, fields, j_sym, h.astype(np.float32), uniforms, 1.0)


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


@pytest.mark.parametrize("case", ["no compiler on PATH", "cache is not a directory"])
def test_fallback_gives_reference_samples(monkeypatch, tmp_path, case):
    p = random_problem(np.random.default_rng(1), 9)
    with monkeypatch.context() as m:
        m.setattr(_sweep, "SWEEP", _sweep.numpy_sweep)
        want = solve_sa(p, AnnealSchedule(n_reads=16, sweeps=50), seed=3)
    cache = tmp_path / "cache"
    if case == "no compiler on PATH":
        (tmp_path / "bin").mkdir()
        env = _env(cache, PATH=str(tmp_path / "bin"))
    else:
        cache.write_text("")
        env = _env(cache)
    proc = subprocess.run([sys.executable, "-c", _SOLVE, json.dumps(p.to_dict())], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert not got["compiled"]
    np.testing.assert_array_equal(got["spins"], want.spins)
    np.testing.assert_array_equal(got["energies"], want.energies)
    assert "using the numpy sweep" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


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
