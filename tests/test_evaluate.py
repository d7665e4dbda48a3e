import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from qamlz import (
    AnnealSchedule,
    ConfigError,
    DataError,
    FomParams,
    ZoomConfig,
    asimov_significance,
    event_signs,
    fit_feature_pipeline,
    fom,
    fom_scan,
    fom_scan_dataset,
    generate_synthetic,
    model_scores,
    overtraining_check,
    prepare,
    rank_variables,
    run_qamlz,
    run_uncertainty,
    score_events,
    scores_by_process,
    split_samples,
    two_gaussian_spec,
)
from qamlz import zoom
from qamlz.evaluate import REFERENCE_BDT_FOM, REFERENCE_DERIVED_FOM
from qamlz.features import DERIVED_PRESETS, FeaturePipeline


def _mp_fom(s, b, f, dps=50):
    """High-precision direct evaluation oracle (`dps` digits)."""
    from mpmath import mp, mpf, log, sqrt

    with mp.workdps(dps):
        s, b, f = mpf(s), mpf(b), mpf(f)
        s2 = (f * b) ** 2
        t1 = (s + b) * log((s + b) * (b + s2) / (b * b + (s + b) * s2))
        t2 = (b * b / s2) * log(1 + s2 * s / (b * (b + s2)))
        return float(sqrt(2 * (t1 - t2)))


def _float_fom(s, b, f):
    """`fom`'s formula in floats, as it stood before the out-of-range limits."""
    s2 = (f * b) ** 2
    t1 = (s + b) * math.log((s + b) * (b + s2) / (b * b + (s + b) * s2))
    t2 = (b * b / s2) * math.log1p(s2 * s / (b * (b + s2)))
    return 2.0 * (t1 - t2)


# ---------------------------------------------------------------------------
# fom
# ---------------------------------------------------------------------------


class TestFom:
    def test_zero_signal_is_exactly_zero(self):
        for b in (10.0, 1e3, 1e6):
            assert fom(0.0, b, FomParams(f=0.2)) == 0.0

    def test_reference_point_against_high_precision_oracle(self):
        got = fom(100.0, 1000.0, FomParams(f=0.2))
        assert got == pytest.approx(_mp_fom(100, 1000, 0.2), abs=1e-12)
        assert got == pytest.approx(0.4784, abs=5e-4)

    def test_asimov_limit(self):
        limit = asimov_significance(100.0, 1000.0)
        assert limit == pytest.approx(math.sqrt(2 * (1100 * math.log(1.1) - 100)), abs=1e-12)
        assert fom(100.0, 1000.0, FomParams(f=1e-9)) == pytest.approx(limit, rel=1e-3)
        assert fom(100.0, 1000.0, FomParams(f=0.0)) == limit

    def test_monotone_in_signal(self):
        for b in (50.0, 1000.0, 1e5):
            for f in (0.05, 0.2, 1.0):
                values = [fom(s, b, FomParams(f=f)) for s in range(1, 1001, 37)]
                assert all(x < y for x, y in zip(values, values[1:]))

    def test_invalid_background(self):
        with pytest.raises(ConfigError):
            fom(10.0, 0.0, FomParams())
        with pytest.raises(ConfigError):
            fom(10.0, -5.0, FomParams())
        with pytest.raises(ConfigError):
            fom(-1.0, 10.0, FomParams())

    def test_tiny_signal_does_not_crash(self):
        assert fom(1e-300, 1e6, FomParams(f=0.2)) >= 0.0

    def test_float_param_shorthand(self):
        assert fom(100.0, 1000.0, 0.2) == fom(100.0, 1000.0, FomParams(f=0.2))

    @pytest.mark.parametrize("s, b, f", [
        (10.0, 100.0, 1e-200),  # (f*B)**2 underflows to 0
        (10.0, 100.0, 1e-160),  # B*B/(f*B)**2 overflows
        (10.0, 100.0, 1e200),  # (f*B)**2 overflows
        (10.0, 100.0, 1.7e308),  # f*B overflows
        (1e199, 1e200, 1e-100),  # B*B overflows, sigma_B^2/B = 1: neither limit
        (1e-300, 1e-300, 1e150),  # B*B underflows, sigma_B^2/B = 1
        (1e-300, 1e-300, 1.0),  # (f*B)**2 underflows
    ])
    def test_out_of_float_range_matches_high_precision_oracle(self, s, b, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing is clamped
            got = fom(s, b, FomParams(f=f))
        assert got == pytest.approx(_mp_fom(s, b, f, dps=1000), rel=1e-12)

    def test_vanishing_f_gives_the_asimov_limit(self):
        for f in (1e-160, 1e-200):
            assert fom(10.0, 100.0, f) == asimov_significance(10.0, 100.0)
        assert fom(10.0, 100.0, 1e-160) == pytest.approx(0.98399, abs=1e-5)

    def test_in_range_values_keep_their_bits(self):
        # where the float formula is finite and not clamped, fom is that formula
        kept = 0
        for s, b, f in itertools.product(np.geomspace(1e-3, 1e6, 10), np.geomspace(1e-2, 1e8, 11),
                                         np.geomspace(1e-150, 1e100, 26)):
            try:
                radicand = _float_fom(s, b, f)
            except (OverflowError, ZeroDivisionError):
                continue
            if math.isfinite(radicand) and radicand >= 0:
                kept += 1
                assert fom(s, b, f) == math.sqrt(radicand)
        assert kept > 1000

    @pytest.mark.parametrize("f", [-0.2, math.nan, math.inf])
    def test_f_must_be_finite_and_non_negative(self, f):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            FomParams(f=f)
        with pytest.raises(ConfigError, match="finite and >= 0"):
            fom(100.0, 1000.0, f)


# ---------------------------------------------------------------------------
# strong classifier R(x) = sum_I mu_I c_I(x)
# ---------------------------------------------------------------------------


def _trained_toy(seed=1, n=400, n_var=2, offset_range=1, iterations=2):
    names = [f"v{i}" for i in range(n_var)]
    spec = two_gaussian_spec(names, [1.5] * n_var, [-1.5] * n_var,
                             signal_fraction=0.5, s_tot=60.0, b_tot=200.0)
    data = generate_synthetic(spec, n, seed=seed)
    split = split_samples(data, seed=seed + 1)
    pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=8)
    cfg = ZoomConfig(
        iterations=iterations, delta=0.1, offset_range=offset_range, solver="exact",
        p_flip=(0.0,), q_flip=(0.0,), schedule=AnnealSchedule(n_g=(1,), n_e=(1,)),
        seed=seed + 2,
    )
    model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
    return model, split


class TestStrongScore:
    def test_zero_weights_score_zero(self):
        model, split = _trained_toy()
        zeroed = type(model)(
            mu=np.zeros_like(model.mu), delta=model.delta,
            offset_range=model.offset_range, pipeline=model.pipeline,
            trajectory=model.trajectory, settings=model.settings,
        )
        assert (score_events(zeroed, split.assess) == 0.0).all()

    def test_cancellation(self):
        # two variables, no offsets, mu = (1, -1): events with both h > 0 score 0
        model, split = _trained_toy(offset_range=0)
        forced = type(model)(
            mu=np.array([1.0, -1.0]), delta=model.delta, offset_range=0,
            pipeline=model.pipeline, trajectory=model.trajectory,
            settings=model.settings,
        )
        h = model.pipeline.transform(split.assess)
        both_positive = (h > 0).all(axis=1)
        scores = score_events(forced, split.assess)
        assert np.allclose(scores[both_positive], 0.0)

    def test_matches_naive_summation(self):
        model, split = _trained_toy(offset_range=1)
        probe = split.assess.select(np.arange(100))
        batch = score_events(model, probe)
        a = model.offset_range
        for i, h in enumerate(model.pipeline.transform(probe)):
            total = 0.0
            for spin in range(len(model.mu)):
                var, off = divmod(spin, 2 * a + 1)
                c = (1.0 if h[var] + model.delta * (off - a) >= 0 else -1.0) / model.aug.n_var
                total += model.mu[spin] * c
            assert batch[i] == pytest.approx(total, abs=1e-12)

    def test_scores_take_int8_signs(self):
        # signs_from_h returns a Fortran-ordered matrix, and astype(float64)
        # keeps that order, whose matvec rounds unlike the int8 product (which
        # matches a C-ordered float64 one); scoring through such a copy would
        # change the scores' last bits, and every curve and summary from them
        model, split = _trained_toy(n_var=3, offset_range=3)
        signs = model.aug.signs_from_h(model.pipeline.transform(split.assess))
        want = signs.astype(np.int8) @ (model.mu / model.aug.n_var)
        assert score_events(model, split.assess).tobytes() == want.tobytes()

    def test_score_bound(self):
        model, split = _trained_toy()
        bound = np.abs(model.mu).sum() / model.aug.n_var
        assert np.abs(score_events(model, split.assess)).max() <= bound + 1e-12

    def test_linearity_in_mu(self, rng):
        model, split = _trained_toy()
        mu_a = rng.uniform(-1, 1, size=len(model.mu))
        mu_b = rng.uniform(-1, 1, size=len(model.mu))

        def with_mu(m):
            return type(model)(
                mu=m, delta=model.delta, offset_range=model.offset_range,
                pipeline=model.pipeline, trajectory=model.trajectory,
                settings=model.settings,
            )

        total = score_events(with_mu(mu_a + mu_b), split.assess)
        parts = score_events(with_mu(mu_a), split.assess) + score_events(
            with_mu(mu_b), split.assess
        )
        np.testing.assert_allclose(total, parts, atol=1e-12)


# ---------------------------------------------------------------------------
# fom_scan
# ---------------------------------------------------------------------------


class TestFomScan:
    def test_uninformative_score_stays_at_baseline(self, rng):
        scores_s = rng.normal(size=4000)
        scores_b = rng.normal(size=4000)
        w_s = np.full(4000, 100.0 / 4000)
        w_b = np.full(4000, 1000.0 / 4000)
        curve = fom_scan(scores_s, w_s, scores_b, w_b, FomParams(f=0.2))
        baseline = fom(100.0, 1000.0, FomParams(f=0.2))
        assert curve.best_fom <= baseline * 1.2
        assert curve.best_fom >= baseline * 0.8

    def test_perfect_separation(self, rng):
        scores_s = rng.uniform(1.0, 2.0, size=200)
        scores_b = rng.uniform(-2.0, -1.0, size=200)
        w = np.ones(200)
        curve = fom_scan(scores_s, w, scores_b, w, FomParams(f=0.2, min_counts=0))
        assert -1.0 < curve.best_cut < 1.0
        assert curve.b_at_best == 0.0
        assert math.isinf(curve.best_fom)

    def test_matches_per_cut_oracle(self, rng):
        scores_s = rng.normal(0.5, 1.0, size=500)
        scores_b = rng.normal(-0.5, 1.0, size=500)
        w_s = rng.uniform(0.1, 1.0, size=500)
        w_b = rng.uniform(0.1, 1.0, size=500)
        curve = fom_scan(scores_s, w_s, scores_b, w_b,
                         FomParams(f=0.2, min_counts=5, grid_points=101))
        assert len(curve.cuts) == 101
        for i, cut in enumerate(curve.cuts):
            s = w_s[scores_s > cut].sum()
            b = w_b[scores_b > cut].sum()
            expected = fom(s, b, FomParams(f=0.2)) if s > 0 and b > 0 else (
                0.0 if s == 0 else math.inf)
            assert curve.fom_values[i] == pytest.approx(expected, rel=1e-12)
            assert curve.s_yields[i] == pytest.approx(s, rel=1e-12)
            assert curve.b_yields[i] == pytest.approx(b, rel=1e-12)
            assert curve.n_signal[i] == (scores_s > cut).sum()

    def test_consistency_with_fom(self, rng):
        scores_s = rng.normal(0.5, 1.0, size=800)
        scores_b = rng.normal(-0.5, 1.0, size=800)
        w = np.ones(800)
        curve = fom_scan(scores_s, w, scores_b, w, FomParams(f=0.2))
        assert curve.best_fom == fom(curve.s_at_best, curve.b_at_best, FomParams(f=0.2))

    def test_no_valid_cut(self, rng):
        curve = fom_scan(
            rng.normal(size=5), np.ones(5), rng.normal(size=5), np.ones(5),
            FomParams(min_counts=20),
        )
        assert curve.no_valid_cut
        assert curve.best_cut is None
        assert math.isnan(curve.best_fom)

    def test_empty_sample_errors(self):
        with pytest.raises(DataError):
            fom_scan(np.array([]), np.array([]), np.array([1.0]), np.array([1.0]))

    def test_degenerate_scores_give_flat_baseline(self):
        # identity-zero scores: cuts below 0 keep everything
        s = np.zeros(100)
        curve = fom_scan(s, np.full(100, 1.0), np.zeros(300), np.full(300, 10.0),
                         FomParams(f=0.2, min_counts=10))
        baseline = fom(100.0, 3000.0, FomParams(f=0.2))
        valid_values = curve.fom_values[curve.valid]
        assert np.allclose(valid_values, baseline)
        assert curve.best_fom == pytest.approx(baseline)


# ---------------------------------------------------------------------------
# run_uncertainty
# ---------------------------------------------------------------------------


class TestRunUncertainty:
    def _prepared(self, seed=3):
        names = ["v0", "v1"]
        spec = two_gaussian_spec(names, [1.5, 1.0], [-1.5, -1.0],
                                 signal_fraction=0.5, s_tot=80.0, b_tot=240.0)
        data = generate_synthetic(spec, 800, seed=seed)
        split = split_samples(data, seed=seed + 1)
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=8)
        return split, pipe

    @staticmethod
    def _run(cfg, split, pipe, **kwargs):
        """`run_uncertainty` on the problem and assess signs of `cfg`'s layout."""
        problem = prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range)
        signs = event_signs(pipe, problem.aug, split.assess)
        return run_uncertainty(cfg, problem, split.assess, signs, **kwargs)

    def test_single_run_rejected(self):
        split, pipe = self._prepared()
        cfg = ZoomConfig(iterations=1, delta=0.1, offset_range=0, solver="exact",
                         schedule=AnnealSchedule(n_g=(1,), n_e=(1,)), seed=1)
        with pytest.raises(ConfigError):
            self._run(cfg, split, pipe, n_runs=1)

    def test_deterministic_pipeline_zero_std(self):
        split, pipe = self._prepared()
        cfg = ZoomConfig(iterations=2, delta=0.1, offset_range=0, solver="exact",
                         p_flip=(0.0,), q_flip=(0.0,),
                         schedule=AnnealSchedule(n_g=(1,), n_e=(1,)), seed=11)
        report = self._run(cfg, split, pipe, n_runs=3, params=FomParams(min_counts=5))
        assert report.std == 0.0
        assert report.mean == report.max_foms[0]

    def test_sa_backend_reports_spread(self):
        split, pipe = self._prepared(seed=9)
        cfg = ZoomConfig(
            iterations=3, delta=0.1, offset_range=1, solver="sa",
            schedule=AnnealSchedule(n_reads=8, sweeps=40, n_g=(1,), n_e=(1,)),
            seed=5,
        )
        report = self._run(cfg, split, pipe, n_runs=4, params=FomParams(min_counts=5))
        assert len(report.max_foms) == 4
        assert report.std >= 0.0
        assert report.mean == pytest.approx(np.mean(report.max_foms))

    def test_runs_share_one_prepared_problem(self, monkeypatch):
        # run_uncertainty builds no coupling sums and transforms no sample: it
        # trains every seed on the problem it is given, which reproduces
        # separate preparations bit for bit, and scores from the given signs
        split, pipe = self._prepared(seed=9)
        cfg = ZoomConfig(
            iterations=3, delta=0.1, offset_range=1, solver="sa",
            schedule=AnnealSchedule(n_reads=8, sweeps=40, n_g=(2,), n_e=(1,)),
            seed=5,
        )
        params = FomParams(min_counts=5)
        separate = []
        for s in (5, 6, 7):
            run_cfg = dataclasses.replace(cfg, seed=s)
            problem = prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range)
            model = run_qamlz(problem, run_cfg)
            separate.append(fom_scan_dataset(model, split.assess, params).best_fom)

        problem = prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range)
        signs = event_signs(pipe, problem.aug, split.assess)
        calls, transformed = [], []
        build = zoom.build_couplings_from_signs
        monkeypatch.setattr(zoom, "build_couplings_from_signs",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        transform = FeaturePipeline.transform
        monkeypatch.setattr(FeaturePipeline, "transform",
                            lambda self, d: transformed.append(d) or transform(self, d))
        report = run_uncertainty(cfg, problem, split.assess, signs, n_runs=3, params=params)
        assert calls == [] and transformed == []
        assert np.array(report.max_foms).tobytes() == np.array(separate).tobytes()

    def test_assess_signs_must_fit_the_problem(self):
        # a model scored from shared signs matches score_events bit for bit,
        # and signs of another layout or sample are refused before training
        split, pipe = self._prepared()
        cfg = ZoomConfig(iterations=1, delta=0.1, offset_range=0, solver="exact",
                         schedule=AnnealSchedule(n_g=(1,), n_e=(1,)), seed=1)
        problem = prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range)
        model = run_qamlz(problem, cfg)
        signs = event_signs(pipe, problem.aug, split.assess)
        assert model_scores(signs, model).tobytes() == score_events(model, split.assess).tobytes()
        wider = prepare(split.train, split.test, pipe, cfg.delta, 1)
        for bad in (event_signs(pipe, wider.aug, split.assess), signs[1:]):
            with pytest.raises(ConfigError, match="assess_signs must have shape"):
                run_uncertainty(cfg, problem, split.assess, bad, n_runs=2)


# ---------------------------------------------------------------------------
# overtraining_check
# ---------------------------------------------------------------------------


class TestOvertraining:
    def test_identical_samples(self, rng):
        x = rng.normal(size=1000)
        out = overtraining_check({"signal": x}, {"signal": x})
        stat, p = out["signal"]
        assert stat == 0.0
        assert p > 0.999

    def test_disjoint_supports(self, rng):
        out = overtraining_check(
            {"wjets": rng.uniform(0, 1, 100)}, {"wjets": rng.uniform(2, 3, 100)}
        )
        stat, _ = out["wjets"]
        assert stat == 1.0

    def test_same_distribution_calibration(self):
        # two draws from one Gaussian: p > 0.01 in >= 95% of 100 seeded trials
        hits = 0
        for seed in range(100):
            r = np.random.default_rng(seed)
            out = overtraining_check(
                {"ttbar": r.normal(size=5000)}, {"ttbar": r.normal(size=5000)}
            )
            hits += out["ttbar"][1] > 0.01
        assert hits >= 95

    def test_one_event_on_each_side_is_compared(self):
        # the effective size m*n/(m+n) = 0.5 is not rounded, so p is finite
        out = overtraining_check({"signal": [0.1], "wjets": [0.1, 0.3]},
                                 {"signal": [0.2], "wjets": [0.2]})
        assert list(out) == ["signal", "wjets"]
        assert out["signal"][0] == 1.0
        assert all(0.0 <= p <= 1.0 for _, p in out.values())

    def test_monotone_transform_invariance(self, rng):
        a = rng.normal(size=400)
        b = rng.normal(0.3, 1.1, size=400)
        base = overtraining_check({"x": a}, {"x": b})["x"][0]
        for transform in (np.exp, np.arctan, lambda v: v**3 + 2 * v):
            stat = overtraining_check({"x": transform(a)}, {"x": transform(b)})["x"][0]
            assert stat == pytest.approx(base, abs=1e-12)

    def test_scores_by_process(self):
        model, split = _trained_toy()
        groups = scores_by_process(model, split.train)
        assert set(groups) <= {"signal", "wjets", "ttbar", "other"}
        assert sum(len(v) for v in groups.values()) == len(split.train)


# ---------------------------------------------------------------------------
# rank_variables
# ---------------------------------------------------------------------------


class TestRankVariables:
    def test_tag_like_variable_ranks_first(self, rng):
        n = 4000
        tags = rng.choice([-1, 1], size=n)
        from qamlz import Dataset

        # near-perfect discriminant: tiny leakage keeps enough background
        # above the low cuts for the count floor to accept them
        oracle = tags + 0.05 * rng.normal(size=n)
        values = np.stack([oracle, rng.normal(size=n)], axis=1)
        d = Dataset(("oracle", "noise"), values, tags,
                    np.where(tags == 1, 100.0 / (tags == 1).sum(),
                             1000.0 / (tags == -1).sum()),
                    ["signal" if t == 1 else "wjets" for t in tags])
        ranked = rank_variables(d, ["oracle", "noise"], FomParams(f=0.2, min_counts=5))
        assert ranked[0][0] == "oracle"
        baseline = fom(100.0, 1000.0, FomParams(f=0.2))
        assert ranked[0][1] > baseline * 3
        # noise variable cannot beat the no-cut baseline by much
        assert ranked[1][1] <= baseline * 1.2

    def test_perfect_binary_discriminant_needs_no_floor(self, rng):
        # a variable exactly equal to the tag separates completely: with the
        # floor disabled the scan reaches the maximal (unbounded) value
        n = 1000
        tags = rng.choice([-1, 1], size=n)
        from qamlz import Dataset

        d = Dataset(("exact",), tags.astype(float)[:, None], tags, np.ones(n),
                    ["signal" if t == 1 else "wjets" for t in tags])
        ranked = rank_variables(d, ["exact"], FomParams(f=0.2, min_counts=0))
        assert math.isinf(ranked[0][1])

    def test_published_ranking_metadata(self):
        # recorded reference ordering, not asserted on synthetic data
        assert set(REFERENCE_DERIVED_FOM) == set(DERIVED_PRESETS)
        assert REFERENCE_DERIVED_FOM["pt_lep_over_met"] == 0.35
        assert REFERENCE_DERIVED_FOM["pt_lep_over_ht"] == 0.03
        values = list(REFERENCE_DERIVED_FOM.values())
        assert values == sorted(values, reverse=True)
        assert REFERENCE_BDT_FOM == (1.44, 0.06)

    def test_direction_agnostic(self, rng):
        n = 2000
        tags = rng.choice([-1, 1], size=n)
        from qamlz import Dataset

        # anti-aligned variable: low values are signal-like
        values = np.stack([-tags + 0.1 * rng.normal(size=n)], axis=1)
        d = Dataset(("anti",), values, tags, np.ones(n),
                    ["signal" if t == 1 else "wjets" for t in tags])
        ranked = rank_variables(d, ["anti"], FomParams(f=0.2, min_counts=5))
        baseline = fom((tags == 1).sum(), (tags == -1).sum(), FomParams(f=0.2))
        assert ranked[0][1] > baseline

    def test_weightless_background_is_a_data_error(self):
        # every variable used to rank at FOM inf
        from qamlz import Dataset

        tags = np.array([1, 1, -1, -1])
        d = Dataset(("met", "mt"), np.arange(8.0).reshape(4, 2), tags,
                    np.array([1.0, 1.0, 0.0, 0.0]), ["signal", "signal", "wjets", "wjets"])
        with pytest.raises(DataError, match="the background events have zero total weight"):
            rank_variables(d, ["met", "mt"], FomParams(f=0.2, min_counts=0))
