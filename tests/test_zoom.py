import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamlz import (
    AnnealSchedule,
    ChainConfig,
    ConfigError,
    DataError,
    Dataset,
    TrainedModel,
    ZoomConfig,
    build_couplings_from_signs,
    default_p_flip,
    effective_problem,
    fit_feature_pipeline,
    flip_step,
    generate_synthetic,
    prepare,
    random_gauge,
    run_qamlz,
    split_samples,
    two_gaussian_spec,
    weighted_distance,
    zoom_update,
)
from qamlz import solver, zoom
from qamlz._codec import from_json
from qamlz.ising import IsingProblem, apply_gauge, energies_batch, sign_pm1
from qamlz.solver import SolverResult, at_iteration

from conftest import random_problem, reference_flip_step


def _exact_config(**kw):
    defaults = dict(
        iterations=3, delta=0.1, offset_range=1, solver="exact",
        p_flip=(0.0,), q_flip=(0.0,),
        schedule=AnnealSchedule(n_g=(1,), n_e=(1,)), seed=1,
    )
    defaults.update(kw)
    return ZoomConfig(**defaults)


def _model_json(model) -> str:
    return json.dumps(dataclasses.asdict(model), sort_keys=True, default=np.ndarray.tolist)


def _toy_split(n=400, seed=1, sep=1.0, n_var=2):
    names = [f"v{i}" for i in range(n_var)]
    spec = two_gaussian_spec(names, [sep] * n_var, [-sep] * n_var,
                             signal_fraction=0.5, s_tot=50.0, b_tot=150.0)
    data = generate_synthetic(spec, n, seed=seed)
    return split_samples(data, seed=seed + 1), names


# ---------------------------------------------------------------------------
# zoom_update
# ---------------------------------------------------------------------------


class TestZoomUpdate:
    def test_first_iteration(self):
        assert zoom_update(np.zeros(1), np.array([1]), 1.0)[0] == 1.0

    def test_arithmetic(self):
        assert zoom_update(np.array([0.5]), np.array([-1]), 0.25)[0] == 0.25

    def test_geometric_bound_after_eight_iterations(self, rng):
        bound = sum(0.5**t for t in range(8))  # 1.9921875
        for _ in range(20):
            mu = np.zeros(16)
            for t in range(8):
                mu = zoom_update(mu, rng.choice([-1, 1], size=16), 0.5**t)
            assert np.abs(mu).max() <= bound + 1e-15
        assert bound == 1.9921875

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            zoom_update(np.zeros(2), np.ones(3), 1.0)


# ---------------------------------------------------------------------------
# flip_step
# ---------------------------------------------------------------------------


def _flip_instance():
    rng = np.random.default_rng(777)
    n_var, a = 4, 2
    n_out = 2 * a + 1
    h = rng.uniform(-1, 1, size=(60, n_var))
    offs = 0.1 * np.arange(-a, a + 1)
    signs = sign_pm1(h[:, np.repeat(np.arange(n_var), n_out)] + np.tile(offs, n_var))
    tags = rng.choice([-1, 1], size=60)
    w = rng.uniform(0.5, 1.5, size=60)
    cm = build_couplings_from_signs(signs, tags, w, n_var)
    mu_prev = rng.uniform(-0.5, 0.5, size=cm.n_spins)
    s = rng.choice([-1, 1], size=cm.n_spins).astype(np.int8)
    return cm, mu_prev, s


class TestFlipStep:
    def test_zero_probabilities_identity(self):
        cm, mu_prev, s = _flip_instance()
        out = flip_step(effective_problem(cm, mu_prev, 0.5), s, 0,
                        0.0, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out, s)

    def test_all_improving_identity(self):
        # feed the exact ground state: no spin flip can lower the energy,
        # so stage 1 never fires regardless of p
        from qamlz import solve_exact

        cm, mu_prev, _ = _flip_instance()
        problem = effective_problem(cm, mu_prev, 0.5)
        ground = solve_exact(problem).spins[0]
        out = flip_step(problem, ground, 0, 0.999, 0.0, np.random.default_rng(5))
        np.testing.assert_array_equal(out, ground)

    def test_golden_mask_regression(self):
        # frozen once from the reference stream: rng seed 12345, p=0.3, q=0.1
        cm, mu_prev, s = _flip_instance()
        out = flip_step(effective_problem(cm, mu_prev, 0.5), s, 0,
                        0.3, 0.1, np.random.default_rng(12345))
        flipped = list(np.flatnonzero(out != s))
        assert flipped == [8, 10, 13]

    def test_schedule_indexing(self):
        cm, mu_prev, s = _flip_instance()
        problem = effective_problem(cm, mu_prev, 1.0)
        a = flip_step(problem, s, 3, (0.5, 0.4, 0.3, 0.2), (0.1,), np.random.default_rng(2))
        b = flip_step(problem, s, 9, (0.2,), (0.1,), np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("t", range(8))
    def test_coupling_sum_formula_off_power_of_two(self, t):
        # at sigma = 0.6**t the problem's couplers round as (x*sigma)*sigma and
        # the formula's as x*(sigma*sigma); no flip decision may differ
        cm, mu_prev, _ = _flip_instance()
        sigma = 0.6**t
        problem = effective_problem(cm, mu_prev, sigma)
        h = sigma * (-cm.tag_sums + cm.pair_sums @ mu_prev)
        j = cm.pair_sums * (sigma * sigma)
        np.fill_diagonal(j, 0.0)
        for k in range(20):
            start = np.random.default_rng((t, k)).choice([-1, 1], size=cm.n_spins)
            out = flip_step(problem, start, 0, 0.9, 0.1, np.random.default_rng(k))
            rng = np.random.default_rng(k)
            want = start.astype(np.float64)
            u = rng.random(cm.n_spins)
            for i in range(cm.n_spins):
                if -2.0 * want[i] * (h[i] + j[i] @ want) < 0.0 and u[i] < 0.9:
                    want[i] = -want[i]
            want[rng.random(cm.n_spins) < 0.1] *= -1.0
            np.testing.assert_array_equal(out, want.astype(np.int8))

    @pytest.mark.parametrize("p, q", [(0.0, 0.0), (0.0, 0.3), (0.16, 0.0), (0.16, 0.04),
                                      (0.5, 0.5), (1.0 - 2.0 ** -53, 0.0),
                                      (1.0 - 2.0 ** -53, 0.25)])
    def test_candidate_walk_matches_full_walk(self, p, q):
        cm, mu_prev, _ = _flip_instance()
        rng = np.random.default_rng(int(p * 1000) + int(q * 100))
        problems = [effective_problem(cm, mu_prev, 0.5**t) for t in range(3)]
        problems += [random_problem(rng, n, coupler_density=d)
                     for n, d in ((1, 1.0), (9, 1.0), (30, 0.3), (50, 0.0))]
        for problem in problems:
            for k in range(10):
                start = rng.choice([-1, 1], size=problem.n_spins).astype(np.int8)
                got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
                out = flip_step(problem, start, 0, p, q, got_rng)
                want = reference_flip_step(problem, start, 0, p, q, want_rng)
                assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestZoomConfig:
    def test_default_flip_schedules(self):
        cfg = ZoomConfig(iterations=8)
        assert cfg.p_flip == tuple(0.16 * 2.0**-t for t in range(8))
        assert cfg.q_flip == tuple(p / 4 for p in cfg.p_flip)
        assert tuple(p / 4 for p in default_p_flip(8)) == cfg.q_flip
        assert default_p_flip(8) == cfg.p_flip

    def test_probability_ordering_enforced(self):
        with pytest.raises(ConfigError, match="q_flip must not exceed"):
            ZoomConfig(p_flip=(0.1,), q_flip=(0.2,))
        # both zero is allowed (fully deterministic updates)
        ZoomConfig(p_flip=(0.0,), q_flip=(0.0,))

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            ZoomConfig(iterations=0)
        with pytest.raises(ConfigError):
            ZoomConfig(base=1.0)
        with pytest.raises(ConfigError):
            ZoomConfig(p_flip=(1.0,), q_flip=(0.0,))
        with pytest.raises(ConfigError):
            ZoomConfig(solver="quantum")


# ---------------------------------------------------------------------------
# run_qamlz
# ---------------------------------------------------------------------------


class TestRunQamlz:
    def test_separable_toy_learns_positive_weight(self):
        # 1-variable problem whose weak output equals the tag sign: training
        # must assign positive weight and beat the zero-weight objective
        split, names = _toy_split(n=600, seed=3, sep=3.0, n_var=1)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=8)
        cfg = _exact_config(iterations=2, delta=0.1, offset_range=0)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        assert model.mu[0] > 0
        h = pipe.transform(split.train)
        signs = model.aug.signs_from_h(h)
        d_zero = weighted_distance(signs, split.train.tags, split.train.weights,
                                   np.zeros(1), 1)
        d_model = weighted_distance(signs, split.train.tags, split.train.weights,
                                    model.mu, 1)
        assert d_model < d_zero
        assert model.trajectory[-1].train_distance == pytest.approx(d_model, rel=1e-12)

    def test_same_seed_byte_identical(self):
        split, names = _toy_split(n=300, seed=5)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = ZoomConfig(iterations=3, delta=0.1, offset_range=1, solver="sa",
                         schedule=AnnealSchedule(n_reads=20, sweeps=100, n_g=(2,), n_e=(1,)),
                         seed=9)
        a = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        b = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        assert _model_json(a) == _model_json(b)

    def test_distance_non_increasing_with_exact_solver(self):
        # The update mu -> mu + sigma*s is forced (s = 0 is not a spin
        # configuration), so on weakly separated data the exact minimizer can
        # still overshoot and raise the distance. Graded per-variable
        # separations keep a strong residual correlation alive at every sigma
        # scale, where the minimizer's distance decreases at each step.
        names = ["v0", "v1", "v2", "v3"]
        spec = two_gaussian_spec(names, [3.0, 2.0, 1.0, 0.5],
                                 [-3.0, -2.0, -1.0, -0.5], signal_fraction=0.5,
                                 s_tot=50.0, b_tot=150.0)
        data = generate_synthetic(spec, 2000, seed=7)
        split = split_samples(data, seed=107)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=10)
        cfg = _exact_config(iterations=8, delta=0.1, offset_range=1, seed=2)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        dists = [r.train_distance for r in model.trajectory]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_sigma_contraction_exact(self):
        split, names = _toy_split(n=200, seed=8)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = _exact_config(iterations=5, seed=3)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        sigmas = [r.sigma for r in model.trajectory]
        for t, s in enumerate(sigmas):
            assert s == 0.5**t
        assert len(model.trajectory) == 5

    def test_candidate_protocol_defaults(self):
        sched = AnnealSchedule()
        assert sched.n_g == (50, 10, 10, 10, 10, 10, 10, 10)
        assert sched.n_e == (1,) * 8

    def test_mu_bound_invariant(self):
        split, names = _toy_split(n=300, seed=9)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = _exact_config(iterations=4, seed=4)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        bound = sum(0.5**t for t in range(4))
        assert np.abs(model.mu).max() <= bound + 1e-12

    def test_excited_state_candidates(self):
        split, names = _toy_split(n=300, seed=10)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = _exact_config(
            iterations=2,
            schedule=AnnealSchedule(n_g=(2,), n_e=(3,), d=(10.0,)),
            seed=5,
        )
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        assert 1 <= model.trajectory[0].n_candidates <= 3

    def test_multi_candidate_sa_deterministic(self):
        # candidate pooling across gauges and excited states, SA backend:
        # counts stay within the cap and reruns are identical
        split, names = _toy_split(n=400, seed=16)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = ZoomConfig(
            iterations=3, delta=0.1, offset_range=1, solver="sa",
            schedule=AnnealSchedule(n_reads=16, sweeps=80, n_g=(3, 2),
                                    n_e=(4, 2, 1), d=(0.5,)),
            seed=21,
        )
        a = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        b = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        assert _model_json(a) == _model_json(b)
        for t, rec in enumerate(a.trajectory):
            assert 1 <= rec.n_candidates <= at_iteration(cfg.schedule.n_e, t)

    def test_sa_gauge_start_gives_the_gauged_problems_model(self, monkeypatch):
        # SA and chain take each gauge through their start states: the same
        # model as solving the gauged problem and mapping its spins back, and
        # no gauged problem is built. Anneals this short end near their start
        # states, so a gauge the anneal ignored would change the model
        split, names = _toy_split(n=400, seed=16)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = ZoomConfig(
            iterations=3, delta=0.1, offset_range=1, solver="sa",
            cutoff_pct=50.0, fixing=True,
            schedule=AnnealSchedule(n_reads=4, sweeps=4, n_g=(3, 2), n_e=(2,)),
            chain=ChainConfig(length=2, strength=0.5),
            seed=21,
        )
        problem = prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range)
        gauges = []

        def anneal_gauged_problem(p, sched, seed, gauge):
            gauges.append(gauge)
            res = solver.solve_sa(apply_gauge(p, gauge), sched, seed)
            return SolverResult(res.spins * gauge, res.energies)

        def chain_gauged_problem(p, cc, sched, seed, gauge):
            gauges.append(gauge)
            res = solver.solve_chain_emulated(apply_gauge(p, gauge), cc, sched, seed)
            return SolverResult(res.spins * gauge, res.energies, res.broken_chain_fraction)

        def refuse(*args, **kwargs):
            raise AssertionError(f"{cfg.solver} built a gauged problem")

        for backend, name, gauged in (("sa", "solve_sa", anneal_gauged_problem),
                                      ("chain", "solve_chain_emulated", chain_gauged_problem)):
            cfg = dataclasses.replace(cfg, solver=backend)
            model = _model_json(run_qamlz(problem, cfg))
            gauges.clear()
            with monkeypatch.context() as m:
                m.setattr(zoom, name, gauged)
                assert _model_json(run_qamlz(problem, cfg)) == model
            assert len(gauges) >= 3 + 2 * 2 and (np.concatenate(gauges) == -1).any()
            with monkeypatch.context() as m:
                m.setattr(zoom, "apply_gauge", refuse)
                assert _model_json(run_qamlz(problem, cfg)) == model

    def test_fixing_and_pruning_path(self):
        split, names = _toy_split(n=300, seed=11)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = _exact_config(iterations=2, cutoff_pct=50.0, fixing=True, seed=6)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        assert len(model.trajectory) == 2

    def test_schema_mismatch_rejected(self):
        split, names = _toy_split(n=200, seed=12)
        other = generate_synthetic(
            two_gaussian_spec(["w0"], [1.0], [-1.0]), 50, seed=1
        )
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        with pytest.raises(ConfigError):
            prepare(split.train, other, pipe, 0.1, 1)

    def test_exact_refusal_surfaces_as_config_error(self):
        split, names = _toy_split(n=200, seed=13, n_var=3)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = _exact_config(delta=0.01, offset_range=4)  # 27 spins > exact limit
        with pytest.raises(ConfigError, match="at most 24"):
            run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)

    def test_model_round_trip(self):
        split, names = _toy_split(n=200, seed=14)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)
        cfg = _exact_config(seed=7)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        doc = json.loads(json.dumps(dataclasses.asdict(model), default=np.ndarray.tolist))
        model2 = from_json(TrainedModel, doc, "model")
        np.testing.assert_array_equal(model.mu, model2.mu)
        assert model2.trajectory == model.trajectory
        np.testing.assert_array_equal(
            model.pipeline.transform(split.test), model2.pipeline.transform(split.test)
        )


class TestPrepare:
    def _split_pipe(self):
        split, names = _toy_split(n=200, seed=15)
        return split, fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=6)

    def test_prepared_signs_are_read_only(self):
        split, pipe = self._split_pipe()
        problem = prepare(split.train, split.test, pipe, 0.1, 1)
        for signs in (problem.train_signs, problem.test_signs):
            assert signs.dtype == np.float64
            with pytest.raises(ValueError):
                signs[0, 0] = 0.0

    @pytest.mark.parametrize("field, value", [("delta", 0.2), ("offset_range", 0)])
    def test_config_must_match_the_problem(self, field, value):
        split, pipe = self._split_pipe()
        problem = prepare(split.train, split.test, pipe, 0.1, 1)
        with pytest.raises(ConfigError, match="prepared with delta 0.1 and offset_range 1"):
            run_qamlz(problem, _exact_config(**{field: value}))
        model = run_qamlz(problem, _exact_config(iterations=1))
        assert (model.delta, model.offset_range) == (problem.aug.delta, problem.aug.offset_range)

    @pytest.mark.parametrize("sample", ["train", "test"])
    def test_zero_total_weight_is_data_error(self, sample):
        split, pipe = self._split_pipe()
        d = getattr(split, sample)
        zeroed = Dataset(d.schema, d.values, d.tags, np.zeros(len(d)), d.processes)
        samples = {"train": split.train, "test": split.test, sample: zeroed}
        with pytest.raises(DataError, match=f"the {sample} sample has zero total weight"):
            prepare(samples["train"], samples["test"], pipe, 0.1, 1)


def _scaled(d: Dataset, k: int) -> Dataset:
    return Dataset(d.schema, d.values, d.tags, d.weights * 2.0**k, d.processes)


@settings(max_examples=12, deadline=None)
@given(k=st.integers(-20, 40), seed=st.integers(0, 2**16),
       pca=st.booleans(), fixing=st.booleans())
def test_exact_training_invariant_under_power_of_two_weight_scale(k, seed, pca, fixing):
    # every coupling sum, field and coupler scales by 2**k exactly, so the
    # exact spectrum, the flip decisions and every distance are unchanged;
    # lambda = 0 and the relative energy window d = None keep it so
    split, names = _toy_split(n=160, seed=seed)
    cfg = ZoomConfig(iterations=3, delta=0.1, offset_range=1, solver="exact", lam=0.0,
                     cutoff_pct=50.0 if fixing else 0.0, fixing=fixing,
                     schedule=AnnealSchedule(n_g=(2,), n_e=(2,)), seed=seed)
    models = []
    for scale in (0, k):
        train, test = _scaled(split.train, scale), _scaled(split.test, scale)
        weak_mode = "normalized" if pca else "density"
        pipe = fit_feature_pipeline(train, names, weak_mode=weak_mode, n_bins=6, use_pca=pca)
        models.append(run_qamlz(prepare(train, test, pipe, cfg.delta, cfg.offset_range), cfg))
    base, scaled = models
    np.testing.assert_array_equal(scaled.mu, base.mu)
    assert ([r.train_distance for r in scaled.trajectory]
            == [r.train_distance for r in base.trajectory])


# ---------------------------------------------------------------------------
# the solve step
# ---------------------------------------------------------------------------


#: an external solver that replies with every state of the problem
_EVERY_STATE_SCRIPT = r"""
import itertools, json, sys
doc = json.load(sys.stdin)
couplers = [(a, b, v) for a, b, v in doc["J"]]
samples = []
for s in itertools.product((-1, 1), repeat=doc["n"]):
    e = sum(hi * si for hi, si in zip(doc["h"], s)) + sum(v * s[a] * s[b] for a, b, v in couplers)
    samples.append({"spins": list(s), "energy": e})
json.dump({"samples": samples}, sys.stdout)
"""


@pytest.mark.parametrize("backend", ["sa", "exact", "chain", "external"])
def test_solve_step_returns_states_of_the_reduced_problem(backend):
    # multiples of 1/8 below 2: every energy sum is exact, so a state's energy
    # has the same bytes in any batch, and only a state in another frame
    # than `reduced`'s can disagree with its reported energy
    rng = np.random.default_rng(31)
    n = 6
    p = random_problem(rng, n, coupler_density=0.6)
    reduced = IsingProblem(h=np.round(p.h * 8) / 8, pairs=p.pairs,
                           values=np.round(p.values * 8) / 8)
    cfg = ZoomConfig(solver=backend, chain=ChainConfig(length=3, strength=0.5),
                     external_command=(sys.executable, "-c", _EVERY_STATE_SCRIPT),
                     schedule=AnnealSchedule(n_reads=12, sweeps=30))
    for k in range(3):
        gauge = random_gauge(n, np.random.default_rng(k))
        res = zoom._solve_backend(reduced, gauge, cfg, 0, seed=(5, k))
        assert energies_batch(reduced, res.spins).tobytes() == res.energies.tobytes()
