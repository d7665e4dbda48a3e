"""The array-backed coupler store against the dict-loop references in
conftest, bit for bit, and the external-solver wire format as a literal."""

import json
import math
import shutil

import numpy as np
import pytest

from qamlz import (
    AnnealSchedule,
    CouplingMatrices,
    IsingProblem,
    _sweep,
    apply_gauge,
    build_couplings_from_signs,
    effective_problem,
    fix_variables,
    prune,
    random_gauge,
    sign_pm1,
)
from qamlz.ising import energies_batch

from conftest import (
    make_problem,
    reference_apply_gauge,
    reference_energies,
    random_problem,
    reference_fix_variables,
    reference_neighbours,
    reference_prune,
    reference_t_hot,
)

_LEVELS = (-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0)


def _tied_problem(rng, n):
    """Couplers drawn half from a few levels (ties and exact zeros) and half
    continuous; fields on two scales so fixing has work to do."""
    h = rng.uniform(-1.0, 1.0, size=n) * rng.choice([0.5, 6.0], size=n)
    h[rng.random(n) < 0.2] = 0.0
    couplers = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                couplers[(a, b)] = (float(rng.choice(_LEVELS)) if rng.random() < 0.5
                                    else float(rng.uniform(-1.0, 1.0)))
    return make_problem(h, couplers)


def _couplings(rng, n_var, offset_range):
    """Training-shaped coupling sums: random signs, tags and weights, with
    offset copies of each variable (so exact ties are common)."""
    n = n_var * (2 * offset_range + 1)
    h = rng.uniform(-1.0, 1.0, size=(60, n_var))
    offsets = 0.3 * np.arange(-offset_range, offset_range + 1)
    signs = sign_pm1(np.repeat(h, 2 * offset_range + 1, axis=1) + np.tile(offsets, n_var))
    return build_couplings_from_signs(signs, rng.choice([-1, 1], size=60),
                                      rng.uniform(0.1, 3.0, size=60), n_var)


def _effective(rng, n_var, offset_range):
    """A training-shaped problem: coupling sums of random signs at a random
    centre and width."""
    n = n_var * (2 * offset_range + 1)
    signs = sign_pm1(rng.uniform(-1.0, 1.0, size=(60, n)))
    cm = build_couplings_from_signs(signs, rng.choice([-1, 1], size=60),
                                    rng.uniform(0.1, 3.0, size=60), n_var)
    return effective_problem(cm, rng.uniform(-1.0, 1.0, size=n), 0.5 ** int(rng.integers(0, 6)))


def _rows(problem):
    doc = problem.to_dict()
    return repr(doc["h"]), repr(doc["J"])


def _check_against_references(p, rng):
    sched = AnnealSchedule()
    for cutoff in (0.0, 30.0, 50.0, 85.0, 97.0, 100.0):
        q = prune(p, cutoff)
        assert repr(q.to_dict()["J"]) == repr(reference_prune(p, cutoff))
        assert q.to_dict()["h"] == p.to_dict()["h"]

        fixed, reduced = fix_variables(q)
        ref_fixed, ref_h, ref_j = reference_fix_variables(q)
        assert fixed.dtype == np.int8 and fixed.tobytes() == ref_fixed.tobytes()
        assert _rows(reduced) == (repr(ref_h), repr(ref_j))

        for problem in (q, reduced):
            g = random_gauge(problem.n_spins, rng)
            ref_h, ref_j = reference_apply_gauge(problem, g)
            gauged = apply_gauge(problem, g)
            assert _rows(gauged) == (repr(ref_h), repr(ref_j))
            for r in (problem, gauged):
                spins = rng.choice([-1, 1], size=(17, r.n_spins)).astype(np.int8)
                assert energies_batch(r, spins).tobytes() == reference_energies(r, spins).tobytes()
                assert sched.ladder(r)[0] == reference_t_hot(sched, r)


@pytest.mark.parametrize("seed", range(12))
def test_tied_problems_match_dict_references(seed):
    rng = np.random.default_rng(1000 + seed)
    _check_against_references(_tied_problem(rng, int(rng.integers(1, 26))), rng)


@pytest.mark.parametrize("seed", range(6))
def test_effective_problems_match_dict_references(seed):
    rng = np.random.default_rng(2000 + seed)
    p = _effective(rng, n_var=int(rng.integers(2, 5)), offset_range=int(rng.integers(1, 4)))
    _check_against_references(p, rng)


def test_wire_format_literal():
    # one zero-valued coupler, and a tie at |J| = 0.75 that the 60% cutoff splits
    p = make_problem([0.5, -0.25, 0.0, 1.0],
                     {(0, 1): 0.0, (0, 2): -0.75, (1, 2): 0.75, (1, 3): 0.75, (2, 3): 0.25})
    assert p.n_couplers == 5
    assert json.dumps(p.to_dict()) == (
        '{"n": 4, "h": [0.5, -0.25, 0.0, 1.0], '
        '"J": [[0, 1, 0.0], [0, 2, -0.75], [1, 2, 0.75], [1, 3, 0.75], [2, 3, 0.25]]}'
    )
    assert json.dumps(prune(p, 60.0).to_dict()) == (
        '{"n": 4, "h": [0.5, -0.25, 0.0, 1.0], '
        '"J": [[0, 2, -0.75], [1, 2, 0.75]]}'
    )
    assert json.dumps(prune(p, 20.0).to_dict()) == (
        '{"n": 4, "h": [0.5, -0.25, 0.0, 1.0], '
        '"J": [[0, 2, -0.75], [1, 2, 0.75], [1, 3, 0.75], [2, 3, 0.25]]}'
    )


# ---------------------------------------------------------------------------
# Pruning effective problems, neighbour rows and compiled fixing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base", [0.5, 0.3])
@pytest.mark.parametrize("seed", range(4))
def test_ranked_prune_matches_reference(base, seed):
    # training-shaped sums at every width of a run: scaling by sigma**2 can
    # merge magnitudes into ties
    rng = np.random.default_rng(3000 + seed)
    cm = _couplings(rng, n_var=int(rng.integers(2, 6)), offset_range=int(rng.integers(0, 4)))
    for t in range(8):
        full = effective_problem(cm, rng.uniform(-1.0, 1.0, size=cm.n_spins), base**t)
        for cutoff in (0.0, 30.0, 50.0, 85.0, 97.0, 100.0):
            assert repr(prune(full, cutoff).to_dict()["J"]) == repr(reference_prune(full, cutoff))


def _tie_after_scaling(sigma):
    """Two magnitudes x < y whose couplers x*sigma*sigma and y*sigma*sigma
    are equal."""
    x = 1.7
    while True:
        y = np.nextafter(x, 2.0)
        if x * sigma * sigma == y * sigma * sigma:
            return x, y
        x = y


def test_ranked_prune_breaks_scaling_ties_by_ij():
    sigma = 0.3**3
    x, y = _tie_after_scaling(sigma)
    # triangle order (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3): the sums
    # rank (0, 2) before (0, 1), but scaled they tie and (0, 1) comes first
    sums = {(0, 1): -x, (0, 2): y, (0, 3): 4.0, (1, 2): -3.0, (1, 3): 0.5, (2, 3): 0.25}
    pair_sums = np.zeros((4, 4))
    for (a, b), v in sums.items():
        pair_sums[a, b] = pair_sums[b, a] = v
    cm = CouplingMatrices(tag_sums=np.zeros(4), pair_sums=pair_sums)
    full = effective_problem(cm, np.zeros(4), sigma)
    assert math.ceil(0.5 * full.n_couplers) == 3
    kept = prune(full, 50.0)
    assert repr(kept.to_dict()["J"]) == repr(reference_prune(full, 50.0))
    assert kept.pairs.tolist() == [[0, 1], [0, 3], [1, 2]]
    # unscaled, (0, 2) outranks (0, 1)
    unscaled = prune(effective_problem(cm, np.zeros(4), 1.0), 50.0)
    assert unscaled.pairs.tolist() == [[0, 2], [0, 3], [1, 2]]
    assert repr(unscaled.to_dict()["J"]) == repr(
        reference_prune(effective_problem(cm, np.zeros(4), 1.0), 50.0))


def test_ranked_prune_keeps_exact_ties_without_sorting():
    # equal magnitudes across the boundary; then +0.0 and -0.0 tied at the
    # bottom as well
    ties = {(0, 1): 1.0, (0, 2): -0.5, (0, 3): 0.5, (1, 2): 0.5, (1, 3): -0.5, (2, 3): 0.25}
    zeros = {**ties, (1, 3): -0.0, (2, 3): 0.0}
    for couplers in (ties, zeros):
        p = make_problem(np.zeros(4), couplers)
        for cutoff in (0.0, 20.0, 50.0, 70.0, 90.0, 100.0):
            assert repr(prune(p, cutoff).to_dict()["J"]) == repr(reference_prune(p, cutoff))


def test_coupling_rankings_are_built_once_and_read_only():
    cm = _couplings(np.random.default_rng(4), n_var=3, offset_range=2)
    for name in ("triangle", "triangle_sums"):
        arr = getattr(cm, name)
        assert getattr(cm, name) is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    iu, ju = np.triu_indices(cm.n_spins, k=1)
    np.testing.assert_array_equal(cm.triangle, np.column_stack([iu, ju]))
    assert cm.triangle_sums.tobytes() == cm.pair_sums[iu, ju].tobytes()
    # effective problems share the triangle instead of copying it
    assert effective_problem(cm, np.zeros(cm.n_spins), 0.5).pairs is cm.triangle


@pytest.mark.parametrize("seed", range(30))
def test_neighbour_rows_match_the_lexsort_construction(seed):
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(0, 40))
    p = random_problem(rng, n, coupler_density=float(rng.choice([0.0, 0.05, 0.3, 1.0])))
    if seed % 3 == 0:
        p = prune(p, float(rng.uniform(0.0, 100.0)))
    for got, want in zip(p.neighbours(), reference_neighbours(p)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_gauged_neighbour_rows_match_the_lexsort_construction(seed):
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(0, 40))
    p = random_problem(rng, n, coupler_density=float(rng.choice([0.0, 0.05, 0.3, 1.0])))
    if seed % 3 == 0:
        p = prune(p, float(rng.uniform(0.0, 100.0)))
    if seed % 2 == 0:  # zero couplers whose gauged sign the rows must keep
        values = p.values.copy()
        values[::3] = rng.choice([-0.0, 0.0], size=len(values[::3]))
        p = IsingProblem(h=p.h, pairs=p.pairs, values=values)
    gauged = apply_gauge(p, random_gauge(n, rng))
    fresh = IsingProblem(h=gauged.h, pairs=gauged.pairs, values=gauged.values)
    for got, want in zip(gauged.neighbours(), reference_neighbours(fresh)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    for name in ("h", "values"):
        assert not getattr(gauged, name).flags.writeable
    assert _rows(gauged) == _rows(fresh)


def _fixing_problems(rng):
    for _ in range(6):
        yield prune(_tied_problem(rng, int(rng.integers(0, 30))), float(rng.uniform(0, 95)))
    for _ in range(3):
        yield prune(_effective(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4))), 85.0)


@pytest.mark.parametrize("fix", ["compiled", "numpy"])
def test_fix_variables_matches_reference_on_each_path(monkeypatch, fix):
    if fix == "numpy":
        monkeypatch.setattr(_sweep, "FIX", _sweep.numpy_fix)
    elif shutil.which("cc"):
        assert _sweep.FIX is not _sweep.numpy_fix, "cc is on PATH but the kernel did not load"
    rng = np.random.default_rng(5000)
    fixed_any = 0
    for p in _fixing_problems(rng):
        fixed, reduced = fix_variables(p)
        ref_fixed, ref_h, ref_j = reference_fix_variables(p)
        assert fixed.dtype == np.int8 and fixed.tobytes() == ref_fixed.tobytes()
        assert _rows(reduced) == (repr(ref_h), repr(ref_j))
        fixed_any += fixed.any()
    assert fixed_any >= 3


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_fixing_kernel_rejects_disagreeing_arrays():
    p = IsingProblem(h=[2.0, 0.0, -1.0], pairs=[[0, 1], [1, 2]], values=[0.5, 0.5])
    start, nb, vals = p.neighbours()

    def fix(**over):
        args = dict(h=p.h.copy(), alive=np.ones(3, dtype=bool), start=start, nb=nb, vals=vals)
        args.update(over)
        assert _sweep.FIX(**args) is None
        return args["h"], args["alive"]

    h, alive = fix()
    assert h.tolist() == [2.0, 0.0, -1.0] and alive.tolist() == [False, True, False]
    with pytest.raises(ValueError, match="disagree in shape"):
        fix(alive=np.ones(2, dtype=bool))
    for over in [dict(nb=np.array([1, 0, 3, 1])), dict(start=np.array([0, 1, 3, 5])),
                 dict(vals=vals[:3])]:
        with pytest.raises(ValueError, match="not compressed sparse rows"):
            fix(**over)
