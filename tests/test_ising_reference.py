"""The array-backed coupler store against the dict-loop references in
conftest, bit for bit, and the external-solver wire format as a literal."""

import json

import numpy as np
import pytest

from qamlz import (
    AnnealSchedule,
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
    reference_fix_variables,
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

        assignments, reduced = fix_variables(q)
        ref_assign, ref_h, ref_j = reference_fix_variables(q)
        assert list(assignments.items()) == list(ref_assign.items())
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
