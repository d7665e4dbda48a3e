"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Criteria are property- and oracle-based on synthetic data; the original
search's published figures are not reproducible at desk scale and are kept
only as reference constants.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qamlz import (
    AnnealSchedule,
    AugmentedClassifierSet,
    ChainConfig,
    FomParams,
    ZoomConfig,
    apply_gauge,
    apply_pca,
    asimov_significance,
    build_couplings_from_signs,
    default_generator_spec,
    effective_problem,
    fit_feature_pipeline,
    fit_pca,
    fom,
    fom_scan_dataset,
    generate_synthetic,
    normalize_fit,
    overtraining_check,
    prune,
    fix_variables,
    random_gauge,
    prepare,
    run_qamlz,
    scores_by_process,
    solve_chain_emulated,
    solve_exact,
    solve_sa,
    split_samples,
    two_gaussian_spec,
)
from qamlz.cli import main as cli_main
from qamlz.dataset import BASE_VARIABLES, Dataset
from qamlz.ising import IsingProblem, energies_batch, sign_pm1

RNG_SEED = 20240817


def _report(num: int, desc: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {desc}")


def _random_problem(rng, n, scale=1.0):
    h = rng.uniform(-scale, scale, size=n)
    j = {(a, b): float(rng.uniform(-scale, scale))
         for a in range(n) for b in range(a + 1, n)}
    return IsingProblem(h=h, pairs=list(j), values=list(j.values()))


def _independent_min_energy(problem) -> float:
    """Raw-formula enumerator, coded apart from the solver module."""
    n = problem.n_spins
    spins = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    e = np.zeros(len(spins))
    for i in range(n):
        e += problem.h[i] * spins[:, i]
    for (a, b), v in zip(problem.pairs, problem.values):
        e += v * spins[:, a] * spins[:, b]
    return float(e.min())


def _all_ground_states(problem, tol=1e-9):
    n = problem.n_spins
    spins = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    e = np.zeros(len(spins))
    for i in range(n):
        e += problem.h[i] * spins[:, i]
    for (a, b), v in zip(problem.pairs, problem.values):
        e += v * spins[:, a] * spins[:, b]
    return spins[e <= e.min() + tol].astype(np.int8)


# ---------------------------------------------------------------------------


def test_01_coupler_arithmetic():
    vals = np.vstack([np.linspace(-1, 1, 10)] * 12).T
    train = Dataset(tuple(f"v{i}" for i in range(12)), vals, [1, -1] * 5,
                    np.ones(10), ["signal", "wjets"] * 5)
    aug = AugmentedClassifierSet(normalize_fit(train), delta=0.009, offset_range=5)
    n_spins = aug.n_spins
    n_couplers = n_spins * (n_spins - 1) // 2
    assert n_spins == 132
    assert n_couplers == 8646
    _report(1, "12 variables at offset range 5 give 132 spins and 8646 couplers")


def test_02_fom_unit_checks():
    from mpmath import mp, mpf, log, sqrt

    for b in (10.0, 1e3, 1e6):
        assert fom(0.0, b, FomParams(f=0.2)) == 0.0

    mp.dps = 50

    def oracle(s, b, f):
        s, b, f = mpf(s), mpf(b), mpf(f)
        s2 = (f * b) ** 2
        t1 = (s + b) * log((s + b) * (b + s2) / (b * b + (s + b) * s2))
        t2 = (b * b / s2) * log(1 + s2 * s / (b * (b + s2)))
        return float(sqrt(2 * (t1 - t2)))

    got = fom(100.0, 1000.0, FomParams(f=0.2))
    assert got == pytest.approx(0.4784, abs=5e-4)
    assert got == pytest.approx(oracle(100, 1000, 0.2), abs=1e-12)
    limit = asimov_significance(100.0, 1000.0)
    assert abs(fom(100.0, 1000.0, FomParams(f=1e-9)) - limit) / limit < 1e-3
    _report(2, "zero-signal exact 0; reference point 0.4784(5e-4); Asimov limit at f=1e-9")


def test_03_solver_oracle_equivalence():
    rng = np.random.default_rng(RNG_SEED)
    sched = AnnealSchedule(n_reads=200, sweeps=1000)
    hits = 0
    for k in range(100):
        n = int(rng.integers(6, 15))
        p = _random_problem(rng, n)
        e_exact = solve_exact(p).energies[0]
        assert e_exact == pytest.approx(_independent_min_energy(p), abs=1e-12)
        e_sa = solve_sa(p, sched, seed=k).energies[0]
        hits += abs(e_sa - e_exact) < 1e-9
    assert hits >= 95
    _report(3, f"exact matches the independent enumerator on 100/100; SA ground hit {hits}/100")


def test_04_hamiltonian_derivation_equivalence():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(25):
        n_var = int(rng.integers(2, 5))
        offset_range = int(rng.integers(0, 2))
        n_v = n_var * (2 * offset_range + 1)
        if n_v > 12:
            offset_range = 0
            n_v = n_var
        n_events = int(rng.integers(20, 60))
        h = rng.uniform(-1, 1, size=(n_events, n_var))
        delta = float(rng.uniform(0.02, 0.3))
        offs = delta * np.arange(-offset_range, offset_range + 1)
        signs = sign_pm1(h[:, np.repeat(np.arange(n_var), 2 * offset_range + 1)]
                         + np.tile(offs, n_var))
        tags = rng.choice([-1, 1], size=n_events)
        w = rng.uniform(0.2, 2.0, size=n_events)
        cm = build_couplings_from_signs(signs, tags, w, n_var)
        mu = rng.uniform(-1, 1, size=n_v)
        sigma = float(rng.uniform(0.1, 1.0))

        problem = effective_problem(cm, mu, sigma)
        configs = np.array(list(itertools.product((-1, 1), repeat=n_v)), dtype=np.int8)
        e = energies_batch(problem, configs)

        # expanded weighted squared distance, evaluated wholesale; constant
        # terms shift every configuration equally and cannot reorder minima
        c_vals = signs / n_var
        outputs = c_vals @ (sigma * configs.T + mu[:, None])
        dist = (w[:, None] * (outputs - tags[:, None]) ** 2).sum(axis=0)

        e_scale = max(1.0, float(np.abs(e).max()))
        d_scale = max(1.0, float(np.abs(dist).max()))
        argmin_h = {tuple(configs[i]) for i in np.flatnonzero(e <= e.min() + 1e-9 * e_scale)}
        argmin_d = {tuple(configs[i]) for i in np.flatnonzero(dist <= dist.min() + 1e-9 * d_scale)}
        assert argmin_h == argmin_d
    _report(4, "argmin of the iteration Hamiltonian equals argmin of the expanded distance, 25/25")


def test_05_zoom_monotonicity():
    # graded per-variable separations keep the residual correlation dominant
    # at every sigma scale; on weakly separated data the forced +-sigma update
    # can overshoot and raise the distance (see decisions ledger)
    names = ["v0", "v1", "v2", "v3"]
    worst = -math.inf
    for seed in range(10):
        spec = two_gaussian_spec(names, [3.0, 2.0, 1.0, 0.5],
                                 [-3.0, -2.0, -1.0, -0.5], signal_fraction=0.5,
                                 s_tot=50.0, b_tot=150.0)
        data = generate_synthetic(spec, 8000, seed=seed)
        split = split_samples(data, seed=seed + 100)
        assert len(split.train) == 2000
        pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=10)
        cfg = ZoomConfig(iterations=8, base=0.5, delta=0.1, offset_range=1,
                         solver="exact", p_flip=(0.0,), q_flip=(0.0,),
                         cutoff_pct=0.0,
                         schedule=AnnealSchedule(n_g=(1,), n_e=(1,)), seed=seed + 7)
        model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
        dists = [r.train_distance for r in model.trajectory]
        assert len(dists) == 8
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:])), (
            f"seed {seed}: distance rose along {dists}"
        )
        worst = max(worst, max(b - a for a, b in zip(dists, dists[1:])))
    _report(5, f"train distance non-increasing over 8 iterations on 10/10 datasets "
               f"(max consecutive delta {worst:.2e})")


def _learning_run(names, seps, n_train, seed, n_bins):
    spec = two_gaussian_spec(names, seps, [-s for s in seps], signal_fraction=0.4,
                             s_tot=400.0, b_tot=600.0)
    data = generate_synthetic(spec, 4 * n_train, seed=seed)
    split = split_samples(data, seed=seed + 1)
    pipe = fit_feature_pipeline(split.train, names, weak_mode="density", n_bins=n_bins)
    cfg = ZoomConfig(iterations=8, delta=0.1, offset_range=2, solver="sa",
                     schedule=AnnealSchedule(n_reads=50, sweeps=300, n_g=(4, 2), n_e=(1,)),
                     seed=seed + 2)
    model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
    final = model.trajectory[-1]
    gap = abs(final.test_distance - final.train_distance) / abs(final.train_distance)
    return model, gap


def test_06_learning_sanity():
    names = [f"v{i}" for i in range(8)]
    seps = [0.35 * s for s in np.linspace(1.5, 0.4, 8)]
    spec = two_gaussian_spec(names, seps, [-s for s in seps], signal_fraction=0.4,
                             s_tot=400.0, b_tot=600.0)
    assess = generate_synthetic(spec, 20_000, seed=11 + 999)
    sig = assess.tags == 1
    baseline = fom(float(assess.weights[sig].sum()), float(assess.weights[~sig].sum()),
                   FomParams(f=0.2))

    # averaged over three dataset seeds per size: single-draw train/test gaps
    # at the larger sizes sit near the estimator noise floor
    seeds = (11, 22, 33)
    foms, gaps = {}, {}
    for n_train in (100, 200, 2000, 20_000):
        f_acc, g_acc = [], []
        for seed in seeds:
            model, gap = _learning_run(names, seps, n_train, seed + n_train, 25)
            g_acc.append(gap)
            f_acc.append(fom_scan_dataset(model, assess, FomParams(f=0.2)).best_fom)
        foms[n_train] = float(np.mean(f_acc))
        gaps[n_train] = float(np.mean(g_acc))

    assert foms[20_000] >= foms[200], f"fom ordering broken: {foms}"
    assert foms[200] > baseline and foms[20_000] > baseline
    assert gaps[100] > gaps[2000] > gaps[20_000], f"gap ordering broken: {gaps}"
    _report(6, f"best fom {foms[200]:.2f}@200 -> {foms[20_000]:.2f}@20k (baseline "
               f"{baseline:.2f}); relative train/test gap "
               f"{gaps[100]:.3f} > {gaps[2000]:.3f} > {gaps[20_000]:.3f}")


def test_07_no_overtraining_gate():
    data = generate_synthetic(default_generator_spec(), 20_000, seed=3)
    split = split_samples(data, seed=4)
    pipe = fit_feature_pipeline(split.train, BASE_VARIABLES, weak_mode="density",
                                n_bins=25)
    cfg = ZoomConfig(iterations=4, delta=0.025, offset_range=1, solver="sa",
                     schedule=AnnealSchedule(n_reads=50, sweeps=200, n_g=(4, 2), n_e=(1,)),
                     seed=5)
    model = run_qamlz(prepare(split.train, split.test, pipe, cfg.delta, cfg.offset_range), cfg)
    report = overtraining_check(scores_by_process(model, split.train),
                                scores_by_process(model, split.test))
    assert set(report) == {"signal", "wjets", "ttbar"}
    for name, (stat, pvalue) in report.items():
        assert pvalue > 0.01, f"class {name}: KS p-value {pvalue}"
    worst = min(v[1] for v in report.values())
    _report(7, f"train/test KS p-values above 0.01 for all classes (min {worst:.3f})")


def test_08_gauge_invariance():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(50):
        n = int(rng.integers(4, 13))
        p = _random_problem(rng, n)
        g = random_gauge(n, rng)
        e_orig = solve_exact(p).energies[0]
        e_gauged = solve_exact(apply_gauge(p, g)).energies[0]
        assert abs(e_orig - e_gauged) <= 1e-12
    _report(8, "ground energies of 50 gauged/ungauged pairs identical to 1e-12")


def test_09_variable_fixing_soundness():
    rng = np.random.default_rng(RNG_SEED + 3)
    fixed_total = 0
    for _ in range(100):
        n = int(rng.integers(6, 11))
        # mixed field scales so a subset of spins is dominance-fixable
        p = _random_problem(rng, n, scale=1.0)
        h = np.asarray(p.h).copy()
        boost = rng.integers(0, n, size=max(1, n // 3))
        h[boost] *= 10.0
        p = IsingProblem(h=h, pairs=p.pairs, values=p.values)
        fixed, _ = fix_variables(p)
        pinned = np.flatnonzero(fixed)
        fixed_total += len(pinned)
        if not len(pinned):
            continue
        for ground in _all_ground_states(p):
            np.testing.assert_array_equal(ground[pinned], fixed[pinned])
    assert fixed_total > 0
    _report(9, f"every fixed spin ({fixed_total} across 100 instances) agrees with "
               "all enumerated ground states")


def test_10_pruning_and_chain_properties():
    rng = np.random.default_rng(RNG_SEED + 4)
    p = _random_problem(rng, 10)
    kept = [set(map(tuple, prune(p, c).pairs.tolist())) for c in (50.0, 85.0, 95.0)]
    assert kept[2] <= kept[1] <= kept[0]

    p8 = _random_problem(rng, 8)
    sched = AnnealSchedule(n_reads=40, sweeps=150)
    fractions = [
        solve_chain_emulated(p8, ChainConfig(length=4, strength=r), sched,
                             seed=5).broken_chain_fraction
        for r in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 0.0

    res_sa = solve_sa(p8, sched, seed=5)
    res_l1 = solve_chain_emulated(p8, ChainConfig(length=1), sched, seed=5)
    np.testing.assert_array_equal(res_sa.spins, res_l1.spins)
    np.testing.assert_array_equal(res_sa.energies, res_l1.energies)
    _report(10, f"coupler nesting at 50/85/95; chain breakage {fractions} "
                "non-increasing to 0; length-1 chain identical to plain SA")


def test_11_cli_determinism(tmp_path):
    cfg = {
        "seed": 17,
        "out_dir": str(tmp_path / "out"),
        "data": {
            "generator": {
                "schema": ["v0", "v1"],
                "processes": {
                    "signal": {"mean": [1.2, 0.8], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                    "wjets": {"mean": [-1.2, -0.8], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                },
                "signal_fraction": 0.5,
                "background_fractions": {"wjets": 1.0},
                "s_tot": 100.0,
                "b_tot": 400.0,
            },
            "n_events": 400,
        },
        "variables": ["v0", "v1"],
        "n_bins": 8,
        "zoom": {
            "iterations": 2, "delta": 0.1, "offset_range": 1, "solver": "exact",
            "p_flip": [0.0], "q_flip": [0.0], "schedule": {"n_g": [1], "n_e": [1]},
        },
        "fom": {"f": 0.2, "min_counts": 5, "grid_points": 51},
        "scan": {"delta": [0.05, 0.1], "offset_range": [1], "cutoff_pct": [0.0],
                 "fixing": [False], "n_runs": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    outputs = {}
    for name, args in (("train", ["train"]), ("scan", ["scan"])):
        assert cli_main(args + ["--config", str(cfg_path)]) in (0, 4)
        files = {f.name: f.read_bytes() for f in sorted((tmp_path / "out").iterdir())}
        assert cli_main(args + ["--config", str(cfg_path)]) in (0, 4)
        repeat = {f.name: f.read_bytes() for f in sorted((tmp_path / "out").iterdir())}
        assert files == repeat, f"{name} outputs changed between runs"
        outputs[name] = files
    assert "model.json" in outputs["train"]
    assert "scan.csv" in outputs["scan"]
    _report(11, "repeated cmd_train and cmd_scan are byte-identical at fixed seed")


def test_12_pca_properties():
    rng = np.random.default_rng(RNG_SEED + 5)
    x = rng.normal(size=(400, 6)) @ rng.normal(size=(6, 6))
    t = fit_pca(x)
    np.testing.assert_allclose(t.components @ t.components.T, np.eye(6), atol=1e-10)

    base = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0],
                     [2.0, 2.0], [-2.0, -2.0]])
    base -= base.mean(axis=0)
    l_emp = np.linalg.cholesky(np.cov(base, rowvar=False, ddof=1))
    l_tgt = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
    data2 = base @ np.linalg.inv(l_emp).T @ l_tgt.T
    t2 = fit_pca(data2)
    assert t2.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-10)
    inv_sqrt2 = 1 / math.sqrt(2)
    for row, want in zip(t2.components, ([inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2])):
        assert (np.allclose(row, want, atol=1e-10)
                or np.allclose(row, -np.asarray(want), atol=1e-10))

    proj = apply_pca(t, x)
    cov = np.cov(proj, rowvar=False, ddof=1)
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() <= 1e-8
    _report(12, "orthonormal to 1e-10; 2x2 closed form exact; projected "
                "cross-covariances below 1e-8")
