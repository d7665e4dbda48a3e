import itertools

import numpy as np
import pytest

from qamlz import (
    AnnealSchedule,
    ChainConfig,
    ConfigError,
    IsingProblem,
    apply_gauge,
    energy,
    prune,
    random_gauge,
    select_states,
    solve_chain_emulated,
    solve_exact,
    solve_sa,
)
from qamlz import solver
from qamlz.solver import SolverResult, at_iteration, expand_chains

from conftest import (brute_force_energy, coupler_dict, make_problem, random_problem,
                      reference_solve_exact)


def _fast_schedule(**kw):
    defaults = dict(n_reads=20, sweeps=200)
    defaults.update(kw)
    return AnnealSchedule(**defaults)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


class TestExact:
    def test_two_spin_fields(self):
        p = make_problem([1.0, -1.0], {})
        res = solve_exact(p)
        np.testing.assert_array_equal(res.spins[0], [-1, 1])
        assert res.energies[0] == -2.0

    def test_degenerate_pair_both_reported(self):
        p = make_problem(np.zeros(2), {(0, 1): -1.0})
        res = solve_exact(p)
        assert res.energies[0] == res.energies[1] == -1.0
        reported = {tuple(s) for s in res.spins[:2]}
        assert reported == {(1, 1), (-1, -1)}

    def test_matches_independent_enumerator(self, rng):
        for _ in range(10):
            p = random_problem(rng, 12, coupler_density=0.6)
            res = solve_exact(p)
            best = min(
                brute_force_energy(p, cfg)
                for cfg in itertools.product((-1, 1), repeat=12)
            )
            assert res.energies[0] == pytest.approx(best, abs=1e-12)

    def test_spectrum_sorted_and_consistent(self, rng):
        p = random_problem(rng, 8)
        res = solve_exact(p, keep=40)
        assert len(res.energies) == 40
        assert (np.diff(res.energies) >= 0).all()
        for s, e in zip(res.spins, res.energies):
            assert energy(p, s) == pytest.approx(e, abs=1e-9)

    def test_refuses_large_problems(self):
        p = make_problem(np.zeros(25), {})
        with pytest.raises(ConfigError, match="at most 24"):
            solve_exact(p)

    def test_permutation_invariance(self, rng):
        p = random_problem(rng, 6)
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        permuted = make_problem(
            np.asarray(p.h)[perm],
            {tuple(sorted((int(inv[a]), int(inv[b])))): v
             for (a, b), v in coupler_dict(p).items()},
        )
        res = solve_exact(p)
        res_p = solve_exact(permuted)
        assert res.energies[0] == pytest.approx(res_p.energies[0], abs=1e-12)
        # relabeling the permuted ground state reproduces an original ground state
        g_perm = res_p.spins[0]
        candidate = np.asarray([g_perm[int(inv[i])] for i in range(6)])
        assert energy(p, candidate) == pytest.approx(res.energies[0], abs=1e-12)

    @pytest.mark.parametrize("n", [11, 14])
    def test_block_size_does_not_change_the_spectrum(self, rng, n):
        # integer fields and couplers tie many energies, so the index-order
        # tie break across block boundaries is exercised
        for _ in range(3):
            p = _integer_problem(rng, n)
            results = [reference_solve_exact(p, 64, chunk) for chunk in (1 << 20, 1 << 12, 1000)]
            for spins, energies in results[1:]:
                np.testing.assert_array_equal(spins, results[0][0])
                np.testing.assert_array_equal(energies, results[0][1])
            _assert_same_bytes(solve_exact(p, keep=64), *results[0])
            # the kept states are the lowest of the spectrum, ties in index order
            idx = np.arange(1 << n)
            spins = ((idx[:, None] >> np.arange(n)) & 1) * 2 - 1
            e = np.array([energy(p, s) for s in spins])
            order = np.lexsort((idx, e))[:64]
            np.testing.assert_array_equal(results[0][0], spins[order])


def _integer_problem(rng, n: int):
    """Fields and couplers in {-1, 0, 1}: many exactly tied energies."""
    return make_problem(rng.integers(-1, 2, size=n).astype(float),
                        {(a, b): float(rng.integers(-1, 2))
                         for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5})


def _near_tie_problem(rng, n: int):
    """Integer fields and couplers in [-2, 2], the fields nudged by a few
    2**-50: the low states sit a few ulps apart, inside the margin."""
    return make_problem(rng.integers(-2, 3, size=n) + rng.integers(-3, 4, size=n) * 2.0 ** -50,
                        {(a, b): float(rng.integers(-2, 3))
                         for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5})


def _assert_same_bytes(res, spins, energies):
    np.testing.assert_array_equal(res.spins, spins)
    assert res.energies.tobytes() == energies.tobytes()


class TestExactOracle:
    """`solve_exact` against the chunked enumeration it replaced, byte for
    byte. The reference ranks every state by (energy, index), so its lowest
    `keep` for a large keep hold the answer to every smaller keep as a prefix.
    A keep above 2**n is tried up to 12 spins, where the reference can sort
    the whole spectrum."""

    def _check(self, p):
        n = p.n_spins
        keeps = (1, 32, 64, (1 << n) + 1) if n <= 12 else (1, 32, 64)
        spins, energies = reference_solve_exact(p, max(keeps), 1 << 12)
        for keep in keeps:
            k = min(keep, 1 << n)
            _assert_same_bytes(solve_exact(p, keep=keep), spins[:k], energies[:k])

    @pytest.mark.parametrize("n", range(19))
    def test_random_floats(self, n):
        rng = np.random.default_rng(100 + n)
        for scale in (1e-3, 1.0, 1e3):
            self._check(random_problem(rng, n, coupler_density=0.7, scale=scale))

    @pytest.mark.parametrize("n", range(19))
    def test_integer_ties(self, n):
        self._check(_integer_problem(np.random.default_rng(200 + n), n))

    @pytest.mark.parametrize("n", range(4, 19))  # fewer spins leave no near ties
    def test_near_ties_inside_the_margin(self, n):
        p = _near_tie_problem(np.random.default_rng(300 + n), n)
        energies = reference_solve_exact(p, 64, 1 << 12)[1]
        # distinct low energies closer together than the margin: the fast
        # energies alone could not rank them
        gaps = np.diff(np.unique(energies))
        assert ((gaps > 0) & (gaps < solver._exact_margin(p))).any()
        self._check(p)

    def test_dense_twenty_spins(self):
        p = random_problem(np.random.default_rng(400), 20)
        assert p.n_couplers == 190
        self._check(p)

    def test_all_states_tied(self):
        # every fast energy equals the cut, so every block is re-scored whole
        for n in (0, 1, 2, 5, 13):
            self._check(make_problem(np.zeros(n), {(a, a + 1): 0.0 for a in range(n - 1)}))

    @pytest.mark.parametrize("chunk", [1, 64, 1 << 20])
    def test_block_size_does_not_change_the_result(self, monkeypatch, chunk):
        rng = np.random.default_rng(500)
        problems = [_near_tie_problem(rng, 13), random_problem(rng, 15), _integer_problem(rng, 9)]
        expected = [solve_exact(p, keep=40) for p in problems]
        monkeypatch.setattr(solver, "_ENUM_CHUNK", chunk)
        monkeypatch.setattr(solver, "_RESCORE_ROWS", 4)
        for p, exp in zip(problems, expected):
            _assert_same_bytes(solve_exact(p, keep=40), exp.spins, exp.energies)


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------


def _signed_zero_problem(rng, n: int) -> IsingProblem:
    """A random problem with about a third of its fields and couplers +0.0 or
    -0.0, each zero keeping the sign of the value it replaced."""
    p = random_problem(rng, n)
    h, values = p.h.copy(), p.values.copy()
    h[rng.random(n) < 0.3] *= 0.0
    values[rng.random(len(values)) < 0.3] *= 0.0
    return IsingProblem(h=h, pairs=p.pairs, values=values)


class TestSa:
    def test_decoupled_reads_reach_field_minimum(self, rng):
        h = rng.uniform(0.5, 2.0, size=10) * rng.choice([-1, 1], size=10)
        p = make_problem(h, {})
        res = solve_sa(p, _fast_schedule(n_reads=30), seed=0)
        expected = np.where(h >= 0, -1, 1)
        np.testing.assert_array_equal(res.spins, np.tile(expected, (30, 1)))

    def test_deterministic_given_seed(self, rng):
        p = random_problem(rng, 9)
        sched = _fast_schedule()
        a = solve_sa(p, sched, seed=42)
        b = solve_sa(p, sched, seed=42)
        np.testing.assert_array_equal(a.spins, b.spins)
        np.testing.assert_array_equal(a.energies, b.energies)
        c = solve_sa(p, sched, seed=43)
        assert not np.array_equal(a.spins, c.spins)

    def test_finds_exact_ground_on_small_problems(self, rng):
        hits = 0
        for _ in range(10):
            p = random_problem(rng, 10)
            e_sa = solve_sa(p, _fast_schedule(n_reads=50, sweeps=400), seed=0).energies[0]
            e_ex = solve_exact(p).energies[0]
            hits += abs(e_sa - e_ex) < 1e-9
        assert hits >= 9

    def test_energies_reevaluate(self, rng):
        p = random_problem(rng, 8)
        res = solve_sa(p, _fast_schedule(), seed=0)
        for s, e in zip(res.spins, res.energies):
            assert energy(p, s) == pytest.approx(e, abs=1e-9)

    def test_gauge_multiplies_the_start_states(self, rng):
        # single-spin Metropolis is gauge-covariant bit for bit: from the
        # gauged starts, p anneals as the gauged problem does from the seeded
        # ones. 1, 3 and 5 reads leave a tail of the four-read draws; 100
        # reads take the whole-row update in hot sweeps
        for k in range(3):
            full = _signed_zero_problem(rng, 10)
            for p in (full, prune(full, 50.0)):
                for n_reads in (1, 3, 5, 100):
                    sched = _fast_schedule(n_reads=n_reads, sweeps=60)
                    g = random_gauge(p.n_spins, rng)
                    res = solve_sa(p, sched, (k, n_reads), gauge=g)
                    ref = solve_sa(apply_gauge(p, g), sched, (k, n_reads))
                    np.testing.assert_array_equal(res.spins, ref.spins * g)
                    assert res.energies.tobytes() == ref.energies.tobytes()

    def test_ladder_strictly_decreasing(self, rng):
        p = random_problem(rng, 5)
        ladder = _fast_schedule(sweeps=50).ladder(p)
        assert (np.diff(ladder) < 0).all()
        assert ladder[-1] == pytest.approx(1e-2)

    @pytest.mark.parametrize("t_hot, t_cold", [(1e300, 1e-300), (1e10, 1e-320)])
    def test_ladder_whose_ratio_underflows_stays_positive(self, rng, t_hot, t_cold):
        # (t_cold / t_hot) ** (1/4) underflows to 0.0 here, which would run
        # every sweep after the first at T = 0
        ladder = AnnealSchedule(t_hot=t_hot, t_cold=t_cold, sweeps=5).ladder(random_problem(rng, 5))
        assert (ladder > 0).all() and (np.diff(ladder) <= 0).all()
        assert (ladder[0], ladder[-1]) == (t_hot, t_cold)

    @pytest.mark.parametrize("gauge", [np.ones(5), np.ones(3), np.ones((1, 4)),
                                       np.array([1, -1, 0, 1])],
                             ids=["long", "short", "2-d", "zero-entry"])
    def test_bad_gauge_rejected(self, rng, gauge):
        p = random_problem(rng, 4)
        with pytest.raises(ConfigError, match="gauge must be a \\+-1 vector"):
            solve_sa(p, _fast_schedule(n_reads=3), seed=0, gauge=gauge)

    def test_matches_reference_implementation(self, rng):
        # straightforward per-spin local-field recomputation, same draw order;
        # the production path maintains the fields incrementally
        def reference_sa(p, sched, seed):
            n = p.n_spins
            rng_init = np.random.default_rng((0, seed))
            rng_sweep = np.random.default_rng((1, seed))
            state = (rng_init.integers(0, 2, size=(sched.n_reads, n)) * 2 - 1).astype(float)
            j_sym = p.dense_couplers()
            for temp in sched.ladder(p):
                uniforms = rng_sweep.random((n, sched.n_reads))
                for i in range(n):
                    local = state @ j_sym[i] + p.h[i]
                    delta = -2.0 * state[:, i] * local
                    accept = (delta <= 0.0) | (
                        uniforms[i] < np.exp(-np.maximum(delta, 0.0) / temp)
                    )
                    state[accept, i] *= -1.0
            return state.astype(np.int8)

        for k in range(5):
            p = random_problem(rng, 8)
            sched = _fast_schedule(n_reads=20, sweeps=200)
            got = solve_sa(p, sched, seed=k)
            want = reference_sa(p, sched, k)
            # identical read trajectories: same multiset of final states
            got_sorted = sorted(map(tuple, got.spins))
            want_sorted = sorted(map(tuple, want))
            assert got_sorted == want_sorted


# ---------------------------------------------------------------------------
# chain emulation
# ---------------------------------------------------------------------------


class TestChain:
    def test_expansion_layout(self, rng):
        p = make_problem([2.0, -1.0], {(0, 1): 0.5})
        phys = expand_chains(p, ChainConfig(length=3, strength=2.0))
        assert phys.n_spins == 6
        np.testing.assert_allclose(phys.h, [2 / 3] * 3 + [-1 / 3] * 3)
        # intra-chain bonds ferromagnetic with magnitude r * max|J|
        phys_j = coupler_dict(phys)
        assert phys_j[(0, 1)] == phys_j[(1, 2)] == -1.0
        # logical coupler between endpoint of chain 0 and start of chain 1
        assert phys_j[(2, 3)] == 0.5

    def test_length_one_identical_to_sa(self, rng):
        p = random_problem(rng, 7)
        sched = _fast_schedule()
        res_sa = solve_sa(p, sched, seed=11)
        res_ch = solve_chain_emulated(p, ChainConfig(length=1), sched, seed=11)
        np.testing.assert_array_equal(res_sa.spins, res_ch.spins)
        np.testing.assert_array_equal(res_sa.energies, res_ch.energies)
        assert res_ch.broken_chain_fraction == 0.0

    def test_majority_decode_rule(self):
        from qamlz import decode_chains

        # clear majority: (+1, +1, -1) -> +1
        logical, broken = decode_chains(
            np.array([[1, 1, -1, -1, -1, -1]]), n_logical=2, length=3,
            rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(logical, [[1, -1]])
        assert broken == 0.5  # first chain disagrees, second does not

    def test_majority_tie_is_seeded_coin(self):
        from qamlz import decode_chains

        readout = np.array([[1, -1]])  # even split
        outcomes = set()
        for seed in range(40):
            logical, broken = decode_chains(readout, n_logical=1, length=2,
                                            rng=np.random.default_rng(seed))
            outcomes.add(int(logical[0, 0]))
            assert broken == 1.0
        assert outcomes == {-1, 1}  # the coin lands both ways across seeds
        # same seed -> same call sequence -> same outcome
        a, _ = decode_chains(readout, 1, 2, np.random.default_rng(5))
        b, _ = decode_chains(readout, 1, 2, np.random.default_rng(5))
        assert a[0, 0] == b[0, 0]

    def test_tie_coins_match_scalar_draws(self):
        from qamlz import decode_chains

        readout = np.random.default_rng(11).choice([-1, 1], size=(50, 8 * 4))
        logical, _ = decode_chains(readout, 8, 4, np.random.default_rng(3))
        # reference: one scalar coin per tie, in row-major (sample, chain) order
        sums = readout.reshape(50, 8, 4).sum(axis=2)
        expected = np.where(sums > 0, 1, -1)
        coins = np.random.default_rng(3)
        for a, b in np.argwhere(sums == 0):
            expected[a, b] = 1 if coins.random() < 0.5 else -1
        assert (sums == 0).sum() > 100  # a 4-spin chain splits evenly 3 times in 8
        np.testing.assert_array_equal(logical, expected)

    def test_chain_solver_energies_reevaluate(self):
        p = make_problem([0.5], {})
        cc = ChainConfig(length=3, strength=1.0)
        res = solve_chain_emulated(p, cc, _fast_schedule(n_reads=5, sweeps=60), seed=0)
        for s, e in zip(res.spins, res.energies):
            assert s[0] in (-1, 1)
            assert energy(p, s) == pytest.approx(e, abs=1e-9)

    def test_tie_break_deterministic(self, rng):
        p = random_problem(rng, 4)
        cc = ChainConfig(length=2, strength=0.05)  # weak chains: ties likely
        sched = _fast_schedule(n_reads=40, sweeps=60)
        a = solve_chain_emulated(p, cc, sched, seed=3)
        b = solve_chain_emulated(p, cc, sched, seed=3)
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.broken_chain_fraction == b.broken_chain_fraction

    def test_gauge_multiplies_the_start_states(self, rng, monkeypatch):
        # the chain takes the gauge through its anneal's start states and
        # decodes in the gauged frame: the gauged problem's result with its
        # spins times g, byte for byte, even-split ties included
        ties = []

        def counting_decode(physical, n_logical, length, rng_tie):
            ties.append(int((physical.reshape(-1, n_logical, length).sum(axis=2) == 0).sum()))
            return decode(physical, n_logical, length, rng_tie)

        decode = solver.decode_chains
        monkeypatch.setattr(solver, "decode_chains", counting_decode)
        for length in (1, 2, 3, 4):
            cc = ChainConfig(length=length, strength=0.3)  # weak chains: they split
            full = _signed_zero_problem(rng, 6)
            for p in (full, prune(full, 50.0)):
                for n_reads in (1, 3, 16):
                    sched = _fast_schedule(n_reads=n_reads, sweeps=30)
                    g = random_gauge(p.n_spins, rng)
                    res = solve_chain_emulated(p, cc, sched, (length, n_reads), gauge=g)
                    ref = solve_chain_emulated(apply_gauge(p, g), cc, sched, (length, n_reads))
                    assert res.spins.tobytes() == (ref.spins * g).tobytes()
                    assert res.energies.tobytes() == ref.energies.tobytes()
                    assert res.broken_chain_fraction == ref.broken_chain_fraction
        assert sum(ties) > 0

    def test_breakage_decreases_with_strength(self, rng):
        p = random_problem(rng, 8, coupler_density=1.0)
        sched = _fast_schedule(n_reads=40, sweeps=150)
        fractions = [
            solve_chain_emulated(p, ChainConfig(length=4, strength=r), sched,
                                 seed=5).broken_chain_fraction
            for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 0.0


# ---------------------------------------------------------------------------
# external solver interface
# ---------------------------------------------------------------------------

# self-contained enumerating "service" speaking the documented JSON protocol
_EXTERNAL_SOLVER_SCRIPT = r"""
import itertools, json, sys
doc = json.load(sys.stdin)
n, h = doc["n"], doc["h"]
couplers = {(a, b): v for a, b, v in doc["J"]}
best = []
for spins in itertools.product((-1, 1), repeat=n):
    e = sum(hi * s for hi, s in zip(h, spins))
    e += sum(v * spins[a] * spins[b] for (a, b), v in couplers.items())
    best.append({"spins": list(spins), "energy": e})
best.sort(key=lambda r: r["energy"])
json.dump({"samples": best[:8]}, sys.stdout)
"""


class TestExternal:
    def test_round_trip_against_exact(self, rng):
        import sys

        from qamlz import solve_external

        p = random_problem(rng, 6)
        res = solve_external(p, [sys.executable, "-c", _EXTERNAL_SOLVER_SCRIPT])
        assert res.energies[0] == pytest.approx(solve_exact(p).energies[0], abs=1e-9)
        for s, e in zip(res.spins, res.energies):
            assert energy(p, s) == pytest.approx(e, abs=1e-9)

    def test_reply_validation(self, rng):
        from qamlz import DataError, parse_solver_reply

        p = random_problem(rng, 3)
        ground = solve_exact(p)
        good = {"samples": [{"spins": [int(v) for v in ground.spins[0]],
                             "energy": float(ground.energies[0])}]}
        res = parse_solver_reply(p, good)
        assert res.energies[0] == pytest.approx(ground.energies[0], abs=1e-12)
        with pytest.raises(DataError, match="samples"):
            parse_solver_reply(p, {"samples": []})
        with pytest.raises(DataError, match="\\+-1 vector"):
            parse_solver_reply(p, {"samples": [{"spins": [0, 1, 0], "energy": 0.0}]})
        bad_energy = {"samples": [{"spins": [int(v) for v in ground.spins[0]],
                                   "energy": float(ground.energies[0]) + 1.0}]}
        with pytest.raises(DataError, match="not the problem energy"):
            parse_solver_reply(p, bad_energy)

    @pytest.mark.parametrize("make_reply, match", [
        (lambda s, e: {"samples": [{"spins": s, "energy": float("nan")}]}, "sample 0: reported"),
        (lambda s, e: {"samples": [{"spins": s, "energy": float("inf")}]}, "sample 0: reported"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e},
                                   {"spins": s, "energy": e + 1e-6}]}, "sample 1: reported"),
        (lambda s, e: [{"spins": s, "energy": e}], "samples"),
        (lambda s, e: {"samples": [s]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": s}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": s, "energy": "low"}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": s, "energy": None}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": [1, 0.5, 1], "energy": e}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": [[1], [1, 1]], "energy": e}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e}],
                       "broken_chain_fraction": "none"}, "broken_chain_fraction"),
        (lambda s, e: {"samples": [{"spins": [True, "1", 1.0], "energy": str(e)}]},
         "sample 0"),
        (lambda s, e: {"samples": [{"spins": s, "energy": str(e)}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": [True, 1, 1], "energy": e}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": ["1", 1, 1], "energy": e}]}, "sample 0"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e}],
                       "broken_chain_fraction": "0.5"}, "broken_chain_fraction"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e}],
                       "broken_chain_fraction": False}, "broken_chain_fraction"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e}],
                       "broken_chain_fraction": float("nan")}, "broken_chain_fraction"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e}],
                       "broken_chain_fraction": -3.5}, "broken_chain_fraction"),
        (lambda s, e: {"samples": [{"spins": s, "energy": e}],
                       "broken_chain_fraction": 7}, "broken_chain_fraction"),
    ], ids=["nan-energy", "inf-energy", "second-sample-energy", "reply-list", "sample-list",
            "missing-energy", "text-energy", "null-energy", "fractional-spin", "ragged-spins",
            "text-breakage", "bool-and-text-values", "numeric-text-energy", "bool-spin",
            "numeric-text-spin", "numeric-text-breakage", "bool-breakage", "nan-breakage",
            "negative-breakage", "breakage-above-one"])
    def test_malformed_reply_is_data_error(self, make_reply, match):
        from qamlz import DataError, parse_solver_reply

        p = make_problem([0.5, -0.25, 1.0], {(0, 1): 0.5, (1, 2): -1.0})
        spins = [1, 1, 1]
        with pytest.raises(DataError, match=match):
            parse_solver_reply(p, make_reply(spins, energy(p, spins)))

    def test_failing_command(self, rng):
        import sys

        from qamlz import DataError, solve_external

        p = random_problem(rng, 3)
        with pytest.raises(DataError, match="external solver failed"):
            solve_external(p, [sys.executable, "-c", "import sys; sys.exit(3)"])

    def test_usable_as_training_backend(self, rng):
        import sys

        from qamlz import (
            ZoomConfig,
            fit_feature_pipeline,
            generate_synthetic,
            prepare,
            run_qamlz,
            split_samples,
            two_gaussian_spec,
        )

        spec = two_gaussian_spec(["x"], [2.0], [-2.0], signal_fraction=0.5,
                                 s_tot=30.0, b_tot=90.0)
        data = generate_synthetic(spec, 200, seed=1)
        split = split_samples(data, seed=2)
        pipe = fit_feature_pipeline(split.train, ["x"], weak_mode="density", n_bins=6)
        common = dict(
            iterations=2, delta=0.1, offset_range=1,
            p_flip=(0.0,), q_flip=(0.0,),
            schedule=AnnealSchedule(n_g=(1,), n_e=(1,)), seed=3,
        )
        problem = prepare(split.train, split.test, pipe, 0.1, 1)
        ext = run_qamlz(problem, ZoomConfig(
            solver="external",
            external_command=(sys.executable, "-c", _EXTERNAL_SOLVER_SCRIPT),
            **common,
        ))
        # the enumerating service reproduces the exact backend's objective
        # trajectory (tie order among degenerate grounds may differ)
        ref = run_qamlz(problem, ZoomConfig(solver="exact", **common))
        assert [r.train_distance for r in ext.trajectory] == pytest.approx(
            [r.train_distance for r in ref.trajectory], abs=1e-12
        )


# ---------------------------------------------------------------------------
# state selection
# ---------------------------------------------------------------------------


class TestSelectStates:
    def _result(self, spins, energies):
        return SolverResult(spins=np.asarray(spins, dtype=np.int8),
                            energies=np.asarray(energies, dtype=float))

    def test_singleton_ground(self):
        res = self._result([[1, 1], [1, -1]], [-2.0, -1.0])
        out = select_states(res, 1, 10.0)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0], [1, 1])

    def test_window_rule(self):
        res = self._result([[1, 1], [1, -1], [-1, 1]], [-5.0, -4.9, -3.0])
        out = select_states(res, 10, 0.2)
        assert len(out) == 2

    def test_duplicates_removed_before_capping(self):
        res = self._result([[1, 1], [1, 1], [1, -1]], [-5.0, -5.0, -4.95])
        out = select_states(res, 2, 1.0)
        assert len(out) == 2
        assert {tuple(s) for s in out} == {(1, 1), (1, -1)}

    def test_empty_result_errors(self):
        res = self._result(np.empty((0, 2)), [])
        with pytest.raises(ConfigError):
            select_states(res, 1, 0.1)


# ---------------------------------------------------------------------------
# schedule validation
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AnnealSchedule(n_reads=0)
        with pytest.raises(ConfigError):
            AnnealSchedule(t_cold=-1.0)
        with pytest.raises(ConfigError):
            AnnealSchedule(t_hot=1e-3, t_cold=1e-2)
        with pytest.raises(ConfigError):
            AnnealSchedule(n_g=(0,))
        with pytest.raises(ConfigError):
            AnnealSchedule(n_e=())

    @pytest.mark.parametrize("over, message", [
        (dict(n_reads=2**16 + 1), "n_reads must be <= 65536"),
        (dict(sweeps=2**20 + 1), "sweeps must be <= 1048576"),
        (dict(n_g=(1, 2**10 + 1)), "gauge counts must be <= 1024"),
        (dict(n_e=(2**16 + 1,)), "excited-state caps must be <= 65536"),
    ])
    def test_counts_are_bounded(self, over, message):
        # built, never run: the bounds themselves are accepted
        AnnealSchedule(n_reads=2**16, sweeps=2**20, n_g=(2**10,), n_e=(2**16,))
        with pytest.raises(ConfigError, match=message):
            AnnealSchedule(**over)

    def test_extend_by_last(self):
        sched = AnnealSchedule(n_g=(50, 10), n_e=(1,), d=(0.5,))
        assert at_iteration(sched.n_g, 0) == 50
        assert at_iteration(sched.n_g, 7) == 10
        assert at_iteration(sched.n_e, 3) == 1
        assert at_iteration(sched.d, 5) == 0.5
        assert AnnealSchedule(d=()).d == (None,)
