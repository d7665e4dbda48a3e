import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamlz import (
    AugmentedClassifierSet,
    ConfigError,
    Dataset,
    IsingProblem,
    apply_gauge,
    build_couplings_from_signs,
    effective_problem,
    energy,
    expand_solution,
    fix_variables,
    prune,
    random_gauge,
    sign_pm1,
    weak_fit,
    ZoomConfig,
)
from qamlz.ising import energies_batch

from conftest import (
    brute_force_energy,
    brute_force_ground_states,
    coupler_dict,
    make_problem,
    random_problem,
    reference_prune,
)


def _weak_set(n_var):
    vals = np.vstack([np.linspace(-1, 1, 10)] * n_var).T
    d = Dataset(tuple(f"v{i}" for i in range(n_var)), vals,
                [1, -1] * 5, np.ones(10), ["signal", "wjets"] * 5)
    return weak_fit(d, mode="normalized")


def _all_configs(n):
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int8)


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------


class TestAugment:
    def test_zero_offsets_reproduce_base_sign(self, rng):
        aug = AugmentedClassifierSet(_weak_set(3), delta=0.0, offset_range=0)
        h = rng.uniform(-1, 1, size=(20, 3))
        signs = aug.signs_from_h(h)
        assert signs.shape == (20, 3)
        np.testing.assert_array_equal(signs, sign_pm1(h))

    def test_paper_scale_spin_and_coupler_count(self):
        aug = AugmentedClassifierSet(_weak_set(12), delta=0.009, offset_range=5)
        assert aug.n_spins == 132
        assert aug.n_spins * (aug.n_spins - 1) // 2 == 8646

    def test_offset_ladder(self):
        aug = AugmentedClassifierSet(_weak_set(1), delta=0.025, offset_range=3)
        np.testing.assert_allclose(
            aug.offsets, [-0.075, -0.05, -0.025, 0.0, 0.025, 0.05, 0.075]
        )
        assert aug.n_outcomes == 7
        assert aug.var_index.tolist() == [0] * 7

    def test_layout_variable_major(self):
        aug = AugmentedClassifierSet(_weak_set(2), delta=0.1, offset_range=1)
        # spin I = i*(2A+1) + (l+A) is variable i at offset delta*l
        assert aug.var_index.tolist() == [0, 0, 0, 1, 1, 1]
        np.testing.assert_array_equal(aug.offsets, [-0.1, 0.0, 0.1] * 2)

    def test_sign_zero_is_plus_one(self):
        aug = AugmentedClassifierSet(_weak_set(1), delta=0.5, offset_range=1)
        # h = 0.5 makes h + delta*l = 0 at l = -1
        signs = aug.signs_from_h(np.array([[0.5]]))
        assert signs[0, 0] == 1
        assert signs.dtype == np.int8 and sign_pm1(np.array([-0.0, -1e-300])).tolist() == [1, -1]

    def test_delta_required_with_offsets(self):
        with pytest.raises(ConfigError):
            AugmentedClassifierSet(_weak_set(1), delta=0.0, offset_range=2)

    @pytest.mark.parametrize("delta, offset_range, message", [
        (math.nan, 0, "delta must be finite"),
        (math.inf, 0, "delta must be finite"),
        (math.inf, 1, "delta must be finite"),
        (1e308, 3, "delta * offset_range must be finite"),
        (0.025, 2**64, "offset_range must be <= 1024"),
    ])
    def test_offsets_must_be_finite(self, delta, offset_range, message):
        # offsets of +-inf or NaN used to give every event the same signs
        for build in (lambda: AugmentedClassifierSet(_weak_set(2), delta, offset_range),
                      lambda: ZoomConfig(delta=delta, offset_range=offset_range)):
            with pytest.raises(ConfigError, match=re.escape(message)):
                build()
        AugmentedClassifierSet(_weak_set(2), 1e308 / 3, 3)  # finite offsets are fine
        AugmentedClassifierSet(_weak_set(1), 0.025, 1024)


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------


class TestCouplings:
    def test_single_signal_event(self):
        aug = AugmentedClassifierSet(_weak_set(1), delta=0.0, offset_range=0)
        signs = np.array([[1]], dtype=np.int8)  # h > 0
        cm = build_couplings_from_signs(signs, np.array([1]), np.array([1.0]), 1)
        assert cm.tag_sums[0] == 1.0
        assert cm.pair_sums[0, 0] == 1.0

    def test_tag_flip_negates_linear_only(self, rng):
        signs = sign_pm1(rng.uniform(-1, 1, size=(40, 6)))
        w = rng.uniform(0.1, 2.0, size=40)
        tags = rng.choice([-1, 1], size=40)
        cm = build_couplings_from_signs(signs, tags, w, 2)
        cm_flip = build_couplings_from_signs(signs, -tags, w, 2)
        np.testing.assert_allclose(cm_flip.tag_sums, -cm.tag_sums, atol=0)
        np.testing.assert_array_equal(cm_flip.pair_sums, cm.pair_sums)

    def test_matches_naive_double_loop(self, rng):
        spec_vals = rng.uniform(-2, 2, size=(50, 3))
        tags = rng.choice([-1, 1], size=50)
        w = rng.uniform(0.0, 3.0, size=50)
        d = Dataset(("a", "b", "c"), spec_vals, tags, w,
                    ["signal" if t == 1 else "ttbar" for t in tags])
        ws = weak_fit(d, n_bins=6)
        aug = AugmentedClassifierSet(ws, delta=0.07, offset_range=1)
        cm = build_couplings_from_signs(aug.signs_from_h(ws.evaluate_matrix(spec_vals)),
                                        tags, w, aug.n_var)

        # naive oracle: per-event, per-pair accumulation from scratch
        n_v = aug.n_spins
        c_lin = np.zeros(n_v)
        c_quad = np.zeros((n_v, n_v))
        h = ws.evaluate_matrix(spec_vals)
        for ev in range(50):
            c_vals = []
            for i_var in range(3):
                for ell in (-1, 0, 1):
                    v = h[ev, i_var] + 0.07 * ell
                    c_vals.append((1.0 if v >= 0 else -1.0) / 3.0)
            for i in range(n_v):
                c_lin[i] += w[ev] * c_vals[i] * tags[ev]
                for j in range(n_v):
                    c_quad[i, j] += w[ev] * c_vals[i] * c_vals[j]
        np.testing.assert_allclose(cm.tag_sums, c_lin, atol=1e-12)
        np.testing.assert_allclose(cm.pair_sums, c_quad, atol=1e-12)

    def test_bounds_invariant(self, rng):
        signs = sign_pm1(rng.uniform(-1, 1, size=(200, 8)))
        w = rng.uniform(0.0, 5.0, size=200)
        tags = rng.choice([-1, 1], size=200)
        n_var = 4
        cm = build_couplings_from_signs(signs, tags, w, n_var)
        assert np.abs(cm.tag_sums).max() <= w.sum() / n_var + 1e-12
        assert np.abs(cm.pair_sums).max() <= w.sum() / n_var**2 + 1e-12


# ---------------------------------------------------------------------------
# effective problem
# ---------------------------------------------------------------------------


def _random_instance(rng, n_var, offset_range, n_events):
    """Random event signs, tags, weights and the resulting coupling sums."""
    n_out = 2 * offset_range + 1
    h = rng.uniform(-1, 1, size=(n_events, n_var))
    delta = rng.uniform(0.02, 0.3)
    offs = delta * np.arange(-offset_range, offset_range + 1)
    signs = sign_pm1(h[:, np.repeat(np.arange(n_var), n_out)] + np.tile(offs, n_var))
    tags = rng.choice([-1, 1], size=n_events)
    w = rng.uniform(0.2, 2.0, size=n_events)
    cm = build_couplings_from_signs(signs, tags, w, n_var)
    return signs, tags, w, cm


class TestEffectiveProblem:
    def test_mu_zero_first_iteration(self, rng):
        _, _, _, cm = _random_instance(rng, 2, 1, 30)
        p = effective_problem(cm, np.zeros(cm.n_spins), sigma=1.0)
        np.testing.assert_allclose(p.h, -cm.tag_sums, atol=0)

    def test_sigma_homogeneity(self, rng):
        _, _, _, cm = _random_instance(rng, 2, 1, 30)
        mu = rng.uniform(-1, 1, size=cm.n_spins)
        p1 = effective_problem(cm, mu, sigma=1.0)
        p2 = effective_problem(cm, mu, sigma=0.5)
        np.testing.assert_allclose(p2.h, 0.5 * p1.h, atol=1e-15)
        p2_j = coupler_dict(p2)
        for key, v in coupler_dict(p1).items():
            assert p2_j[key] == pytest.approx(0.25 * v, abs=1e-15)

    def test_ground_state_matches_expanded_distance(self, rng):
        # expansion oracle: full weighted squared-distance objective over all
        # configurations, constants included (they shift, never reorder)
        for _ in range(10):
            n_var, a = 2, 0  # keep 2**n enumerable quickly; larger in acceptance
            signs, tags, w, cm = _random_instance(rng, 2, 1, 25)
            n_v = cm.n_spins
            mu = rng.uniform(-0.8, 0.8, size=n_v)
            sigma = float(rng.uniform(0.2, 1.0))
            p = effective_problem(cm, mu, sigma)
            configs = _all_configs(n_v)
            e = energies_batch(p, configs)

            c_vals = signs / 2.0  # n_var = 2
            dist = np.array([
                float((w * ((c_vals @ (sigma * s + mu)) - tags) ** 2).sum())
                for s in configs
            ])
            scale = max(1.0, np.abs(e).max())
            argmin_h = {tuple(configs[i]) for i in np.flatnonzero(e <= e.min() + 1e-9 * scale)}
            dscale = max(1.0, np.abs(dist).max())
            argmin_d = {tuple(configs[i])
                        for i in np.flatnonzero(dist <= dist.min() + 1e-9 * dscale)}
            assert argmin_h == argmin_d

    def test_dimension_mismatch(self, rng):
        _, _, _, cm = _random_instance(rng, 2, 1, 30)
        with pytest.raises(ConfigError):
            effective_problem(cm, np.zeros(cm.n_spins + 1), 1.0)


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------


class TestPrune:
    def test_zero_cutoff_identity(self, rng):
        p = random_problem(rng, 8)
        assert coupler_dict(prune(p, 0.0)) == coupler_dict(p)

    def test_full_cutoff_decouples(self, rng):
        p = random_problem(rng, 6)
        bare = prune(p, 100.0)
        assert bare.n_couplers == 0
        # each spin's ground value is -sgn(h_i)
        from qamlz import solve_exact

        ground = solve_exact(bare).spins[0]
        expected = np.where(p.h >= 0, -1, 1)
        mask = np.abs(p.h) > 0
        np.testing.assert_array_equal(ground[mask], expected[mask])

    def test_paper_scale_retention_count(self):
        h = np.zeros(132)
        rng = np.random.default_rng(0)
        j = {}
        for a in range(132):
            for b in range(a + 1, 132):
                j[(a, b)] = float(rng.normal())
        p = make_problem(h, j)
        assert p.n_couplers == 8646
        assert prune(p, 85.0).n_couplers == 1297

    def test_nesting(self, rng):
        p = random_problem(rng, 10)
        kept_sets = [set(coupler_dict(prune(p, c))) for c in (50.0, 85.0, 95.0)]
        assert kept_sets[2] <= kept_sets[1] <= kept_sets[0]

    def test_fields_untouched(self, rng):
        p = random_problem(rng, 7)
        np.testing.assert_array_equal(prune(p, 60.0).h, p.h)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.booleans())
    def test_retention_count_law(self, cutoff, n, seed, tied):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n)
        if tied:  # a few magnitudes, +0.0 and -0.0 among them
            levels = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=p.n_couplers)
            p = IsingProblem(h=p.h, pairs=p.pairs, values=levels)
        kept = prune(p, cutoff)
        assert kept.n_couplers == math.ceil((1.0 - cutoff / 100.0) * p.n_couplers)
        assert repr(kept.to_dict()["J"]) == repr(reference_prune(p, cutoff))
        assert set(coupler_dict(kept)) <= set(coupler_dict(prune(p, cutoff / 2)))


# ---------------------------------------------------------------------------
# fix_variables
# ---------------------------------------------------------------------------


class TestFixVariables:
    def test_dominance_chain(self):
        p = make_problem([10.0, 0.1], {(0, 1): 1.0})
        fixed, reduced = fix_variables(p)
        assert fixed.dtype == np.int8 and fixed.tolist() == [-1, 1]
        assert reduced.n_spins == 0

    def test_zero_fields_fix_nothing(self):
        p = make_problem(np.zeros(4), {(0, 1): 1.0, (2, 3): -0.5})
        fixed, reduced = fix_variables(p)
        assert fixed.tolist() == [0, 0, 0, 0]
        assert reduced.n_spins == 4

    def test_agrees_with_all_ground_states(self, rng):
        # exhaustive oracle over 100 random instances
        for k in range(100):
            p = random_problem(rng, 10, coupler_density=0.4)
            fixed, reduced = fix_variables(p)
            pinned = np.flatnonzero(fixed)
            if not len(pinned):
                continue
            _, grounds = brute_force_ground_states(p)
            for g in grounds:
                for i in pinned:
                    assert g[i] == fixed[i], f"instance {k}: spin {i} fixed wrongly"

    def test_expand_solution_round_trip(self, rng):
        p = random_problem(rng, 8, coupler_density=0.2, scale=0.3)
        # strong fields force some fixing
        h = np.asarray(p.h).copy()
        h[0] = 5.0
        h[3] = -4.0
        p = IsingProblem(h=h, pairs=p.pairs, values=p.values)
        fixed, reduced = fix_variables(p)
        assert fixed[0] == -1 and fixed[3] == 1
        from qamlz import solve_exact

        sub = solve_exact(reduced).spins[0] if reduced.n_spins else np.empty(0, np.int8)
        full = expand_solution(fixed, sub)
        best, grounds = brute_force_ground_states(p)
        assert energy(p, full) == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


class TestGauge:
    def test_identity_gauge(self, rng):
        p = random_problem(rng, 5)
        g = np.ones(5, dtype=np.int8)
        q = apply_gauge(p, g)
        np.testing.assert_array_equal(q.h, p.h)
        assert coupler_dict(q) == coupler_dict(p)

    def test_global_flip(self, rng):
        p = random_problem(rng, 5)
        g = -np.ones(5, dtype=np.int8)
        q = apply_gauge(p, g)
        np.testing.assert_array_equal(q.h, -p.h)
        assert coupler_dict(q) == coupler_dict(p)

    def test_energy_identity_random_triples(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_problem(rng, n)
            g = random_gauge(n, rng)
            s = rng.choice([-1, 1], size=n).astype(np.int8)
            lhs = energy(p, s * g)
            rhs = energy(apply_gauge(p, g), s)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_ground_energy_invariant(self, rng):
        from qamlz import solve_exact

        for _ in range(10):
            p = random_problem(rng, 7)
            g = random_gauge(7, rng)
            e0 = solve_exact(p).energies[0]
            e1 = solve_exact(apply_gauge(p, g)).energies[0]
            assert e0 == pytest.approx(e1, abs=1e-12)

    def test_length_mismatch(self, rng):
        p = random_problem(rng, 4)
        with pytest.raises(ConfigError):
            apply_gauge(p, np.ones(5, dtype=np.int8))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


class TestEnergy:
    def test_decoupled_minimum(self):
        p = make_problem([1.0, -1.0], {})
        assert energy(p, [-1, 1]) == -2.0

    def test_ferromagnetic_pair(self):
        p = make_problem(np.zeros(2), {(0, 1): -1.0})
        assert energy(p, [1, 1]) == -1.0

    def test_exhaustive_minimum_matches_oracle(self, rng):
        p = random_problem(rng, 6)
        configs = _all_configs(6)
        batch = energies_batch(p, configs)
        oracle = [brute_force_energy(p, tuple(c)) for c in configs]
        np.testing.assert_allclose(batch, oracle, atol=1e-12)
        assert batch.min() == pytest.approx(min(oracle), abs=1e-12)

    def test_invalid_spins_rejected(self):
        p = make_problem(np.zeros(2), {})
        with pytest.raises(ConfigError):
            energy(p, [1, 0])
        with pytest.raises(ConfigError):
            energy(p, [1, 1, 1])

    def test_lambda_enters_through_field(self, rng):
        _, _, _, cm = _random_instance(rng, 2, 0, 20)
        p0 = effective_problem(cm, np.zeros(cm.n_spins), 1.0, lam=0.0)
        p1 = effective_problem(cm, np.zeros(cm.n_spins), 1.0, lam=0.3)
        np.testing.assert_allclose(p1.h - p0.h, 0.3, atol=1e-15)
        assert coupler_dict(p1) == coupler_dict(p0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_problem_json_round_trip(rng):
    p = random_problem(rng, 9, coupler_density=0.5)
    doc = p.to_dict()
    q = make_problem(doc["h"], {(a, b): v for a, b, v in doc["J"]})
    np.testing.assert_array_equal(q.h, p.h)
    assert coupler_dict(q) == coupler_dict(p)
    assert q.n_spins == p.n_spins


@pytest.mark.parametrize("pairs, values", [
    ([[1, 0]], [1.0]),                # i > j
    ([[-1, 1]], [1.0]),               # negative index
    ([[0, 3]], [1.0]),                # j beyond the fields
    ([[0, 2], [0, 1]], [1.0, 1.0]),   # not sorted
    ([[0, 1], [0, 1]], [1.0, 1.0]),   # duplicate
    ([[0, 1]], [np.inf]),             # not finite
    ([[0, 1]], [1.0, 2.0]),           # one value too many
    ([0, 1], [1.0]),                  # not an (m, 2) array
])
def test_coupler_store_rejects(pairs, values):
    with pytest.raises(ConfigError):
        IsingProblem(h=np.zeros(3), pairs=pairs, values=values)


def test_coupler_store_sizes():
    p = IsingProblem(h=np.zeros(3), pairs=[[0, 1], [1, 2]], values=[0.0, -0.5])
    assert (p.n_spins, p.n_couplers) == (3, 2)
    np.testing.assert_array_equal(p.dense_couplers(),
                                  [[0.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
    empty = IsingProblem(h=np.ones(2), pairs=[], values=[])
    assert (empty.n_spins, empty.n_couplers) == (2, 0)


def test_dense_couplers_built_once_and_read_only():
    p = IsingProblem(h=np.zeros(3), pairs=[[0, 2]], values=[1.5])
    m = p.dense_couplers()
    assert p.dense_couplers() is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 1] = 1.0


def test_coupler_store_leaves_caller_arrays_writable():
    h = np.zeros(3)
    p = IsingProblem(h=h, pairs=np.zeros((0, 2), np.int64), values=np.zeros(0))
    h[0] = 1
    assert p.h[0] == 0.0 and not p.h.flags.writeable
    # arrays that are already read-only, such as another problem's, are shared
    p = IsingProblem(h=[0.5, -1.0], pairs=[[0, 1]], values=[0.25])
    q = IsingProblem(h=p.h, pairs=p.pairs, values=p.values)
    assert q.h is p.h and q.pairs is p.pairs and q.values is p.values


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**31 - 1))
def test_coupler_count_law(n_var, seed):
    offset_range = seed % 3
    delta = 0.01 if offset_range > 0 else 0.0
    aug = AugmentedClassifierSet(_weak_set(min(n_var, 6)), delta=delta, offset_range=offset_range)
    assert aug.n_spins == aug.n_var * (2 * offset_range + 1)
