import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamlz import (
    DERIVED_PRESETS,
    SET_A_DERIVED,
    SET_B_DERIVED,
    ConfigError,
    DataError,
    Dataset,
    apply_pca,
    default_generator_spec,
    feature_matrix,
    fit_feature_pipeline,
    fit_pca,
    generate_synthetic,
    normalize_fit,
    split_samples,
    two_gaussian_spec,
    variable_set,
    weak_fit,
)
from qamlz._codec import from_json
from qamlz.dataset import BASE_VARIABLES
from qamlz.features import FeaturePipeline

from conftest import (
    reference_feature_matrix,
    reference_fit_feature_pipeline,
    reference_transform,
)


def _dataset(values, tags=None, weights=None, schema=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, k = values.shape
    schema = schema or tuple(f"v{i}" for i in range(k))
    tags = np.asarray(tags if tags is not None else [1] * n)
    weights = np.asarray(weights if weights is not None else np.ones(n))
    return Dataset(schema, values, tags, weights, ["signal" if t == 1 else "wjets" for t in tags])


# ---------------------------------------------------------------------------
# normalize_fit
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_midpoint_maps_to_zero(self):
        train = _dataset([[0.0], [100.0]], tags=[1, -1])
        ws = normalize_fit(train)
        assert ws.evaluate_matrix([[50.0]])[0, 0] == 0.0

    def test_range_ends_and_clamping(self):
        train = _dataset([[0.0], [100.0]], tags=[1, -1])
        ws = normalize_fit(train)
        out = ws.evaluate_matrix([[100.0], [0.0], [-5.0], [250.0]])[:, 0]
        assert out.tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_exhaustive_range_on_table_schema(self):
        spec = two_gaussian_spec(BASE_VARIABLES, np.ones(12), -np.ones(12), sigmas=2.0)
        train = generate_synthetic(spec, 1000, seed=1)
        probe = generate_synthetic(spec, 1000, seed=2)
        ws = normalize_fit(train)
        out = ws.evaluate_matrix(probe.matrix(BASE_VARIABLES))
        assert np.abs(out).max() <= 1.0

    def test_constant_variable_flagged_and_zero(self):
        train = _dataset([[5.0, 1.0], [5.0, 2.0]], tags=[1, -1])
        ws = normalize_fit(train)
        assert ws.constant_variables == ("v0",)
        out = ws.evaluate_matrix(np.array([[5.0, 1.5], [7.0, 1.5]]))
        assert (out[:, 0] == 0.0).all()

    def test_empty_train_errors(self):
        with pytest.raises(DataError):
            normalize_fit(_dataset(np.empty((0, 1)), tags=[], weights=[]))


# ---------------------------------------------------------------------------
# weak_fit
# ---------------------------------------------------------------------------


class TestWeakFit:
    def test_balanced_bin_has_zero_response(self):
        # both classes uniform on the same range: every response ~ 0
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(4000, 1))
        tags = np.array([1, -1] * 2000)
        ws = weak_fit(_dataset(x, tags=tags), n_bins=4)
        assert np.abs(ws.responses).max() < 0.15

    def test_pure_signal_bin_is_plus_one(self):
        # signal only in the upper half, background only in the lower half
        x = np.concatenate([np.linspace(0.1, 0.9, 50), np.linspace(-0.9, -0.1, 50)])
        tags = np.array([1] * 50 + [-1] * 50)
        ws = weak_fit(_dataset(x[:, None], tags=tags), n_bins=2)
        assert ws.responses[0, 1] == 1.0
        assert ws.responses[0, 0] == -1.0

    def test_two_gaussian_toy_matches_histogram_oracle(self):
        spec = two_gaussian_spec(["x"], [1.0], [-1.0], sigmas=1.0, signal_fraction=0.5)
        train = generate_synthetic(spec, 100_000, seed=5)
        n_bins = 20
        ws = weak_fit(train, n_bins=n_bins)

        # independent oracle: histogram the normalized values directly
        x = train.column("x")
        lo, hi = x.min(), x.max()
        z = 2 * (x - lo) / (hi - lo) - 1
        edges = np.linspace(-1, 1, n_bins + 1)
        sig = train.tags == 1
        hs, _ = np.histogram(z[sig], bins=edges, weights=train.weights[sig])
        hb, _ = np.histogram(z[~sig], bins=edges, weights=train.weights[~sig])
        ps, pb = hs / hs.sum(), hb / hb.sum()
        with np.errstate(invalid="ignore"):
            expected = np.where(ps + pb > 0, (ps - pb) / (ps + pb), 0.0)
        np.testing.assert_allclose(ws.responses[0], expected, atol=1e-12)

        # monotone across the central region where both classes populate bins
        central = ws.responses[0][5:15]
        assert (np.diff(central) >= 0).all()

    def test_single_class_errors(self):
        with pytest.raises(DataError, match="both signal and background"):
            weak_fit(_dataset([[1.0], [2.0]], tags=[1, 1]))

    def test_h_range_bounded(self):
        spec = two_gaussian_spec(["x", "y"], [0.5, 1.0], [-0.5, -1.0])
        train = generate_synthetic(spec, 2000, seed=9)
        probe = generate_synthetic(spec, 2000, seed=10)
        ws = weak_fit(train)
        out = ws.evaluate_matrix(probe.matrix(["x", "y"]))
        assert np.abs(out).max() <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.integers(min_value=2, max_value=40),
    )
    def test_h_range_property(self, seed, probe_value, n_bins):
        # |h_i(x)| <= 1 for any fitted set and any input, however extreme
        r = np.random.default_rng(seed)
        x = r.normal(scale=r.uniform(0.1, 100.0), size=(50, 1))
        tags = np.array([1, -1] * 25)
        train = _dataset(x, tags=tags)
        for ws in (normalize_fit(train), weak_fit(train, n_bins=n_bins)):
            out = ws.evaluate_matrix(np.array([[probe_value]]))
            assert abs(out[0, 0]) <= 1.0


class TestEvaluateH:
    def test_normalized_mode_equivalence(self):
        train = _dataset([[0.0], [10.0]], tags=[1, -1])
        ws = normalize_fit(train)
        values = (-3.0, 0.0, 2.5, 10.0, 14.0)
        batch = ws.evaluate_matrix([[v] for v in values])[:, 0]
        for v, got in zip(values, batch):
            # scalar oracle: the affine map of the range [0, 10], clamped
            assert got == min(max(2 * (v - 0.0) / 10.0 - 1, -1.0), 1.0)

    def test_bin_boundary_goes_right(self):
        # value exactly on a shared edge belongs to the bin opening there
        train = _dataset(np.array([[-1.0], [1.0], [-0.5], [0.5]]),
                         tags=np.array([-1, -1, 1, 1]))
        ws = weak_fit(train, n_bins=4)
        # normalized value 0.0 sits on the edge between bins 1 and 2 -> bin 2
        edges_mid_value = 0.0
        got = ws.evaluate_matrix([[edges_mid_value]])[0, 0]
        assert got == ws.responses[0, 2]

    def test_matches_scalar_recomputation(self):
        spec = two_gaussian_spec(["x", "y"], [1.0, 0.3], [-1.0, -0.3])
        train = generate_synthetic(spec, 5000, seed=2)
        probe = generate_synthetic(spec, 100, seed=3)
        ws = weak_fit(train, n_bins=10)
        batch = ws.evaluate_matrix(probe.matrix(["x", "y"]))
        for i, row in enumerate(probe.matrix(["x", "y"])):
            # scalar oracle: recompute normalization and bin lookup by hand
            for j in range(2):
                z = 2 * (row[j] - ws.lo[j]) / (ws.hi[j] - ws.lo[j]) - 1
                z = min(max(z, -1.0), 1.0)
                b = int(np.floor((z + 1.0) / 2.0 * 10))
                b = min(b, 9)
                assert batch[i, j] == ws.responses[j, b]

    def test_schema_mismatch_errors(self):
        ws = normalize_fit(_dataset([[0.0], [1.0]], tags=[1, -1]))
        with pytest.raises(DataError, match=r"expected \(n, 1\) matrix"):
            ws.evaluate_matrix([[1.0, 2.0]])


# ---------------------------------------------------------------------------
# derived variables
# ---------------------------------------------------------------------------


def _physics_row(**over):
    base = {
        "pt_lep": 30.0, "eta_lep": 1.0, "q_lep": 1.0, "met": 300.0, "mt": 120.0,
        "n_jets": 4.0, "pt_jet1": 150.0, "ht": 500.0, "disc_b": 0.8, "n_b": 1.0,
        "pt_b": 90.0, "dr_lb": 2.0,
    }
    base.update(over)
    return base


class TestDerived:
    def _dataset_from_rows(self, rows):
        schema = tuple(rows[0])
        vals = np.array([[r[k] for k in schema] for r in rows])
        return _dataset(vals, tags=[1] * len(rows), schema=schema)

    def test_zero_factor(self):
        d = self._dataset_from_rows([_physics_row(met=280.0)])
        out = feature_matrix(d, ["met_mt_window"])
        assert out[0, 0] == 0.0

    def test_simple_ratio(self):
        d = self._dataset_from_rows([_physics_row(pt_lep=30.0, met=300.0)])
        out = feature_matrix(d, ["pt_lep_over_met"])
        assert out[0, 0] == pytest.approx(0.1)

    def test_presets_match_hand_coded_expressions(self):
        rng = np.random.default_rng(4)
        rows = [
            _physics_row(
                pt_lep=rng.uniform(5, 80), eta_lep=rng.uniform(-2.4, 2.4),
                met=rng.uniform(280, 600), mt=rng.uniform(0, 300),
                pt_jet1=rng.uniform(110, 400), ht=rng.uniform(200, 900),
                disc_b=rng.uniform(0, 1), n_jets=float(rng.integers(1, 8)),
                pt_b=rng.uniform(20, 300), dr_lb=rng.uniform(0, 5),
            )
            for _ in range(50)
        ]
        d = self._dataset_from_rows(rows)
        names = list(SET_A_DERIVED + SET_B_DERIVED)
        out = feature_matrix(d, names)
        hand = {
            "pt_lep_over_met": lambda r: r["pt_lep"] / r["met"],
            "pt_lep_over_pt_jet1": lambda r: r["pt_lep"] / r["pt_jet1"],
            "discb_shift_times_pt_b": lambda r: (r["disc_b"] - 1) * r["pt_b"],
            "met_mt_window": lambda r: abs((r["met"] - 280) * (r["mt"] - 80)),
            "met_ht_window": lambda r: abs((r["met"] - 280) * (r["ht"] - 400)),
            "dr_lb_minus_mt_scaled": lambda r: r["dr_lb"] - r["mt"] / 40,
            "ht_sq_over_n_jets": lambda r: r["ht"] ** 2 / r["n_jets"],
            "pt_lep_plus_eta_sq": lambda r: r["pt_lep"] + 3.5 * r["eta_lep"] ** 2,
            "pt_lep_over_ht": lambda r: r["pt_lep"] / r["ht"],
        }
        assert set(hand) == set(DERIVED_PRESETS)
        for name, fn in hand.items():
            expected = [fn(r) for r in rows]
            np.testing.assert_allclose(out[:, names.index(name)], expected, rtol=1e-14)

    def test_zero_denominator_gives_zero(self):
        d = self._dataset_from_rows([_physics_row(met=0.0), _physics_row(met=300.0)])
        out = feature_matrix(d, ["pt_lep_over_met"])
        assert out[0, 0] == 0.0
        assert out[1, 0] == pytest.approx(0.1)

    def test_non_finite_value_names_the_variable(self):
        d = self._dataset_from_rows([_physics_row(met=1e200, mt=1e200), _physics_row()])
        with pytest.raises(DataError, match="derived variable 'met_mt_window' must be finite"):
            feature_matrix(d, ["pt_lep_over_met", "met_mt_window"])

    def test_missing_variable_or_input_is_named(self):
        d = self._dataset_from_rows([{k: v for k, v in _physics_row().items() if k != "mt"}])
        with pytest.raises(DataError, match="variable 'nope' not in schema"):
            feature_matrix(d, ["met", "nope"])
        with pytest.raises(DataError, match="variable 'mt' not in schema"):
            feature_matrix(d, ["met_mt_window"])

    def test_variable_sets(self):
        vars_a, mode_a = variable_set("A")
        assert set(SET_A_DERIVED) <= set(vars_a)
        assert {v for v in vars_a if v in DERIVED_PRESETS} == set(SET_A_DERIVED)
        assert mode_a == "density"
        vars_alpha, mode_alpha = variable_set("alpha")
        assert vars_alpha == BASE_VARIABLES and mode_alpha == "normalized"
        vars_b, _ = variable_set("B")
        assert set(vars_a) < set(vars_b)
        assert {v for v in vars_b if v in DERIVED_PRESETS} == set(SET_A_DERIVED + SET_B_DERIVED)
        custom = variable_set(["met", "ht"])
        assert custom == (("met", "ht"), "density")
        with pytest.raises(ConfigError):
            variable_set("gamma")


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


class TestPca:
    def test_diagonal_covariance_gives_axes(self, rng):
        # uncorrelated data with distinct variances: components are axes
        n = 4000
        x = np.stack([rng.normal(0, 3, n), rng.normal(0, 1, n)], axis=1)
        x = (x - x.mean(0)) @ np.eye(2)  # just centered
        t = fit_pca(x)
        # leading component along coordinate 0
        assert abs(abs(t.components[0, 0]) - 1.0) < 0.02
        assert abs(t.components[0, 1]) < 0.1
        emp = np.cov(x, rowvar=False, ddof=1)
        assert t.eigenvalues[0] == pytest.approx(max(np.linalg.eigvalsh(emp)), rel=1e-10)

    def test_closed_form_2x2(self):
        # construct data whose sample covariance is exactly [[2,1],[1,2]]
        base = np.array([
            [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0],
            [2.0, 2.0], [-2.0, -2.0],
        ])
        base -= base.mean(axis=0)
        cov = np.cov(base, rowvar=False, ddof=1)
        # scale coordinates to hit the target covariance through a linear map
        target = np.array([[2.0, 1.0], [1.0, 2.0]])
        l_emp = np.linalg.cholesky(cov)
        l_tgt = np.linalg.cholesky(target)
        x = base @ np.linalg.inv(l_emp).T @ l_tgt.T
        assert np.allclose(np.cov(x, rowvar=False, ddof=1), target, atol=1e-12)

        t = fit_pca(x)
        assert t.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-10)
        inv_sqrt2 = 1 / np.sqrt(2)
        for row, expected in zip(t.components, ([inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2])):
            assert (np.allclose(row, expected, atol=1e-10)
                    or np.allclose(row, -np.asarray(expected), atol=1e-10))

    def test_reconstruction_identity(self, rng):
        x = rng.normal(size=(200, 5))
        t = fit_pca(x)
        projected = apply_pca(t, x)
        reconstructed = projected @ t.components + t.mean
        np.testing.assert_allclose(reconstructed, x, atol=1e-10)

    def test_orthonormality(self, rng):
        x = rng.normal(size=(300, 6)) @ rng.normal(size=(6, 6))
        t = fit_pca(x)
        gram = t.components @ t.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
        assert (np.diff(t.eigenvalues) <= 1e-12).all()
        assert (t.eigenvalues >= -1e-12).all()

    def test_projected_covariance_diagonal(self, rng):
        x = rng.normal(size=(500, 4)) @ rng.normal(size=(4, 4))
        t = fit_pca(x)
        proj = apply_pca(t, x)
        cov = np.cov(proj, rowvar=False, ddof=1)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 1e-8

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            fit_pca(np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_round_trip_and_event_path(self):
        spec = two_gaussian_spec(["x", "y"], [1.0, 0.5], [-1.0, -0.5])
        train = generate_synthetic(spec, 3000, seed=1)
        probe = generate_synthetic(spec, 50, seed=2)
        pipe = fit_feature_pipeline(train, ["x", "y"], weak_mode="density",
                                    n_bins=8, use_pca=True)
        # through JSON text, the format the reader reads
        doc = json.loads(json.dumps(dataclasses.asdict(pipe), default=np.ndarray.tolist))
        pipe2 = from_json(FeaturePipeline, doc, "pipeline")
        np.testing.assert_array_equal(pipe.transform(probe), pipe2.transform(probe))
        batch = pipe.transform(probe)
        for i in range(len(probe)):
            np.testing.assert_allclose(pipe.transform(probe.select([i]))[0], batch[i], atol=1e-12)

    def test_pca_fit_on_train_only(self):
        spec = two_gaussian_spec(["x", "y"], [1.0, 0.5], [-1.0, -0.5])
        train = generate_synthetic(spec, 1000, seed=1)
        other = generate_synthetic(spec, 1000, seed=9)
        pipe = fit_feature_pipeline(train, ["x", "y"], use_pca=True)
        pipe_other = fit_feature_pipeline(other, ["x", "y"], use_pca=True)
        assert not np.array_equal(pipe.pca.mean, pipe_other.pca.mean)

    def test_derived_in_pipeline(self):
        spec = two_gaussian_spec(
            ["pt_lep", "met"], [40.0, 430.0], [30.0, 330.0], sigmas=[10.0, 60.0]
        )
        train = generate_synthetic(spec, 2000, seed=3)
        pipe = fit_feature_pipeline(
            train, ["pt_lep", "met", "pt_lep_over_met"], weak_mode="density",
        )
        assert pipe.derived == ("pt_lep_over_met",)
        out = pipe.transform(train)
        assert out.shape == (2000, 3)
        assert np.abs(out).max() <= 1.0


# ---------------------------------------------------------------------------
# feature_matrix against the second-Dataset path it replaced (conftest)
# ---------------------------------------------------------------------------

#: the presets each set passed as `derived` before the pipeline read them
#: from its variables
_SET_DERIVED = {"A": SET_A_DERIVED, "B": SET_A_DERIVED + SET_B_DERIVED}


def _assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype)
    assert a.tobytes() == b.tobytes()


def _json(pipe: FeaturePipeline) -> str:
    return json.dumps(dataclasses.asdict(pipe), default=np.ndarray.tolist)


@pytest.fixture(scope="module")
def physics_split():
    return split_samples(generate_synthetic(default_generator_spec(), 3000, seed=7), seed=7)


class TestFeatureMatrixOracle:
    """Bit for bit, so the PCA rows in model.json keep their last digits."""

    @pytest.mark.parametrize("selector", ["A", "B"])
    def test_matrix_matches_reference(self, physics_split, selector):
        variables, _ = variable_set(selector)
        for d in (physics_split.train, physics_split.assess):
            x = feature_matrix(d, variables)
            ref = reference_feature_matrix(d, variables, _SET_DERIVED[selector])
            _assert_bits_equal(x, ref)
            # the bits of the PCA covariance depend on the memory layout too
            assert x.flags.f_contiguous and ref.flags.f_contiguous

    @pytest.mark.parametrize("use_pca", [False, True], ids=["plain", "pca"])
    @pytest.mark.parametrize("selector", ["A", "B"])
    def test_pipeline_matches_reference(self, physics_split, selector, use_pca):
        variables, weak_mode = variable_set(selector)
        train = physics_split.train
        pipe = fit_feature_pipeline(train, variables, weak_mode=weak_mode, use_pca=use_pca)
        ref = reference_fit_feature_pipeline(train, variables, _SET_DERIVED[selector],
                                             weak_mode=weak_mode, use_pca=use_pca)
        assert pipe.derived == ref.derived == _SET_DERIVED[selector]
        if use_pca:
            for name in ("mean", "components", "eigenvalues"):
                _assert_bits_equal(getattr(pipe.pca, name), getattr(ref.pca, name))
        else:
            assert pipe.pca is None and ref.pca is None
        assert _json(pipe) == _json(ref)
        for d in (train, physics_split.test, physics_split.assess):
            _assert_bits_equal(pipe.transform(d), reference_transform(ref, d))

    def test_carried_preset_column_is_read_not_computed(self, physics_split):
        d = physics_split.train
        carried = np.linspace(-1.0, 1.0, len(d))  # not what the formula gives
        with_col = Dataset(d.schema + ("pt_lep_over_met",), np.column_stack([d.values, carried]),
                           d.tags, d.weights, d.processes)
        variables, _ = variable_set("A")
        x = feature_matrix(with_col, variables)
        _assert_bits_equal(x[:, variables.index("pt_lep_over_met")], carried)
        _assert_bits_equal(x, reference_feature_matrix(with_col, variables, SET_A_DERIVED))
        pipe = fit_feature_pipeline(with_col, variables, use_pca=True)
        ref = reference_fit_feature_pipeline(with_col, variables, SET_A_DERIVED, use_pca=True)
        assert _json(pipe) == _json(ref)
        for probe in (with_col, physics_split.assess):
            _assert_bits_equal(pipe.transform(probe), reference_transform(ref, probe))

    def test_custom_list_naming_a_preset(self, physics_split):
        variables, weak_mode = variable_set(["met", "ht", "met_ht_window"])
        assert weak_mode == "density"
        train = physics_split.train
        # the old path computed only the presets passed as `derived`
        with pytest.raises(DataError, match="variable 'met_ht_window' not in schema"):
            reference_feature_matrix(train, variables, ())
        _assert_bits_equal(feature_matrix(train, variables),
                           reference_feature_matrix(train, variables, ("met_ht_window",)))
        pipe = fit_feature_pipeline(train, variables, use_pca=True)
        ref = reference_fit_feature_pipeline(train, variables, ("met_ht_window",), use_pca=True)
        assert pipe.derived == ("met_ht_window",)
        assert _json(pipe) == _json(ref)
        _assert_bits_equal(pipe.transform(physics_split.assess),
                           reference_transform(ref, physics_split.assess))
