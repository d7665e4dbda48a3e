import csv
import ctypes
import dataclasses
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamlz import (
    ConfigError,
    DataError,
    Dataset,
    GeneratorSpec,
    ProcessModel,
    apply_preselection,
    default_generator_spec,
    generate_synthetic,
    load_events,
    split_samples,
    two_gaussian_spec,
)
from qamlz import _sweep, dataset
from qamlz._codec import from_json
from qamlz.dataset import BASE_VARIABLES, PRESELECTION_VARIABLES, PROCESSES, _load_rows

from conftest import (
    compiled_stream_states,
    reference_generate_synthetic,
    reference_to_csv,
    stream_states,
)

HAVE_CC = shutil.which("cc") is not None


def _spec_1d(sig_mean=1.0, bkg_mean=-1.0):
    return two_gaussian_spec(["x"], [sig_mean], [bkg_mean], sigmas=1.0,
                             signal_fraction=0.5, s_tot=100.0, b_tot=300.0)


# ---------------------------------------------------------------------------
# generate_synthetic
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_event_count_and_determinism(self):
        spec = _spec_1d()
        a = generate_synthetic(spec, 500, seed=7)
        b = generate_synthetic(spec, 500, seed=7)
        assert len(a) == 500
        assert a.to_csv() == b.to_csv()  # byte-identical round trip
        c = generate_synthetic(spec, 500, seed=8)
        assert a.to_csv() != c.to_csv()

    def test_class_proportions_40_60(self):
        spec = two_gaussian_spec(["x"], [1.0], [-1.0], signal_fraction=0.4)
        d = generate_synthetic(spec, 50_000, seed=3)
        n_sig = int((d.tags == 1).sum())
        # binomial(50000, 0.4): sd ~ 110, allow 5 sd
        assert abs(n_sig - 20_000) < 550

    def test_empirical_means_converge(self):
        # law-of-large-numbers oracle against the generator's own spec
        spec = _spec_1d(1.0, -1.0)
        d = generate_synthetic(spec, 100_000, seed=11)
        x = d.column("x")
        assert abs(x[d.tags == 1].mean() - 1.0) < 0.02
        assert abs(x[d.tags == -1].mean() + 1.0) < 0.02

    def test_weight_conservation(self):
        spec = two_gaussian_spec(["x"], [0.5], [-0.5], s_tot=7000.0, b_tot=200_000.0)
        d = generate_synthetic(spec, 2_000, seed=5)
        s_sum = d.weights[d.tags == 1].sum()
        b_sum = d.weights[d.tags == -1].sum()
        assert s_sum == pytest.approx(7000.0, rel=1e-12)
        assert b_sum == pytest.approx(200_000.0, rel=1e-12)

    def test_identical_distributions_no_separation(self):
        # with indistinguishable classes, cutting on the variable should not
        # beat the no-cut figure of merit beyond noise
        from qamlz import FomParams, fom, fom_scan

        spec = two_gaussian_spec(["x"], [0.0], [0.0], s_tot=100.0, b_tot=1000.0)
        d = generate_synthetic(spec, 10_000, seed=13)
        sig = d.tags == 1
        curve = fom_scan(d.column("x")[sig], d.weights[sig],
                         d.column("x")[~sig], d.weights[~sig], FomParams())
        baseline = fom(100.0, 1000.0, FomParams())
        assert curve.best_fom <= baseline * 1.15

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(ConfigError, match="positive semi-definite"):
            GeneratorSpec(
                schema=("a", "b"),
                processes={
                    "signal": ProcessModel((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0))),
                    "wjets": ProcessModel((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))),
                },
                signal_fraction=0.5,
                background_fractions={"wjets": 1.0},
                s_tot=1.0, b_tot=1.0,
            )

    def test_zero_probability_class_rejected(self):
        with pytest.raises(ConfigError, match="zero-probability"):
            GeneratorSpec(
                schema=("a",),
                processes={
                    "signal": ProcessModel((0.0,), ((1.0,),)),
                    "wjets": ProcessModel((0.0,), ((1.0,),)),
                },
                signal_fraction=0.0,
                background_fractions={"wjets": 1.0},
                s_tot=1.0, b_tot=1.0,
            )

    def test_bounds_and_integer_rounding(self):
        spec = default_generator_spec()
        d = generate_synthetic(spec, 300, seed=2)
        assert (d.column("n_jets") >= 1).all() and (d.column("n_jets") <= 10).all()
        assert np.array_equal(d.column("n_b"), np.rint(d.column("n_b")))
        assert (d.column("disc_b") >= 0).all() and (d.column("disc_b") <= 1).all()

    def test_bound_of_equal_ends_is_a_point(self):
        d = generate_synthetic(_unit_spec({"x": (1.0, 1.0)}), 20, seed=3)
        assert (d.column("x") == 1.0).all()

    @pytest.mark.parametrize("bound", [(1.0,), (0.0, 1.0, 2.0)])
    def test_bound_that_is_not_a_pair_is_config_error(self, bound):
        with pytest.raises(ConfigError, match="bound on 'x' must be a"):
            _unit_spec({"x": bound})

    def test_prefix_property_from_per_event_streams(self):
        # event i depends only on (seed, i), so shorter runs are prefixes of
        # longer ones; this is what makes generation schedule-independent
        spec = default_generator_spec()
        small = generate_synthetic(spec, 50, seed=31)
        big = generate_synthetic(spec, 120, seed=31)
        np.testing.assert_array_equal(small.values, big.values[:50])
        np.testing.assert_array_equal(small.tags, big.tags[:50])
        assert list(small.processes) == list(big.processes[:50])

    @pytest.mark.parametrize("seed", [-1, 2**64, True])
    def test_seed_outside_64_bits_rejected(self, seed):
        # True would otherwise generate as seed 1, and -1 fail inside numpy
        with pytest.raises(ConfigError, match="seed must be a non-negative 64-bit integer"):
            generate_synthetic(_spec_1d(), 10, seed)

    def test_spec_json_round_trip(self, tmp_path):
        spec = default_generator_spec()
        path = tmp_path / "spec.json"
        import json
        path.write_text(json.dumps(dataclasses.asdict(spec)))
        spec2 = from_json(GeneratorSpec, json.loads(path.read_text()), "spec")
        a = generate_synthetic(spec, 50, seed=1)
        b = generate_synthetic(spec2, 50, seed=1)
        assert a.to_csv() == b.to_csv()


def _assert_bit_equal(spec, n_events, seed):
    a = generate_synthetic(spec, n_events, seed)
    b = reference_generate_synthetic(spec, n_events, seed)
    assert a.values.tobytes() == b.values.tobytes()  # also tells -0.0 from 0.0
    assert a.tags.tobytes() == b.tags.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert list(a.processes) == list(b.processes)
    assert a.to_csv() == b.to_csv()
    return a


def _unit_spec(bounds, integer_variables=(), fractions=None):
    """Two variables, unit covariance; signal at +1, every background at -1."""
    fractions = fractions or {"wjets": 1.0}
    cov = ((1.0, 0.0), (0.0, 1.0))
    processes = {"signal": ProcessModel((1.0, 1.0), cov)}
    processes.update({name: ProcessModel((-1.0, -1.0), cov) for name in fractions})
    return GeneratorSpec(schema=("x", "n"), processes=processes, signal_fraction=0.5,
                         background_fractions=fractions, s_tot=10.0, b_tot=30.0,
                         bounds=bounds, integer_variables=integer_variables)


class TestStreamStates:
    """The chunk-wise stream states against numpy's own seeding of each key."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1])
    @pytest.mark.parametrize("start, stop", [(0, 2), (1023, 1026), (2**32 - 1, 2**32 + 2)])
    def test_equal_to_default_rng(self, seed, start, stop):
        # seeds and indices of one and of two 32-bit words, and a chunk that
        # straddles 2**32
        expected = [np.random.default_rng((seed, i)).bit_generator.state
                    for i in range(start, stop)]
        assert compiled_stream_states(seed, start, stop) == expected


class TestGenerateMatchesPerEventLoop:
    """Chunked generation against the per-event loop it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**32, 2**64 - 1])
    def test_default_spec(self, seed):
        _assert_bit_equal(default_generator_spec(), 5000, seed)

    def test_two_gaussian_spec(self):
        _assert_bit_equal(two_gaussian_spec(["a", "b", "c"], [0.5, 1.0, 0.0],
                                            [-0.5, 0.0, 0.2], sigmas=[1.0, 2.0, 0.5]), 3000, 5)

    def test_tight_bound_reaches_the_cap(self):
        # an attempt lands in [2, 3] with probability 0.02 to 0.16 by class, so
        # most events need more than the first round of attempts and a tenth
        # of the signal draws all 100 checks and is clipped onto a bound
        d = _assert_bit_equal(_unit_spec({"x": (2.0, 3.0)}), 3000, 4)
        x = d.column("x")
        assert ((x == 2.0) | (x == 3.0)).sum() > 100

    def test_rounding_outside_a_tight_bound(self):
        d = _assert_bit_equal(_unit_spec({"n": (-0.4, 2.7)}, integer_variables=("n",)), 3000, 9)
        n = d.column("n")
        assert (n == 2.7).any()  # 3 after rounding, clipped a second time
        assert np.signbit(n[n == 0.0]).any()  # -0.0 from rounding survives the clip

    def test_background_process_with_zero_fraction(self):
        spec = _unit_spec({}, fractions={"wjets": 0.0, "ttbar": 1.0, "other": 0.0})
        d = _assert_bit_equal(spec, 2000, 3)
        assert set(d.processes) == {"signal", "ttbar"}

    @pytest.mark.parametrize("n_events", [1023, 1024, 1025, 5000])
    def test_chunk_boundaries(self, n_events):
        _assert_bit_equal(_unit_spec({"x": (-1.5, None), "n": (None, 1.5)}), n_events, 12)

    def test_single_event_has_an_empty_class(self):
        spec = _unit_spec({})
        with pytest.raises(DataError) as ours:
            generate_synthetic(spec, 1, seed=0)
        with pytest.raises(DataError) as ref:
            reference_generate_synthetic(spec, 1, seed=0)
        assert str(ours.value) == str(ref.value)


class TestCompiledStreams:
    """Generation through the compiled event streams and through the
    per-event generators of the fallback, each against the reference."""

    @pytest.mark.parametrize("seed", [7, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("spec", [
        default_generator_spec(),
        two_gaussian_spec(["a", "b", "c"], [0.5, 1.0, 0.0], [-0.5, 0.0, 0.2],
                          sigmas=[1.0, 2.0, 0.5])], ids=["default", "two_gaussian"])
    @pytest.mark.parametrize("path", ["compiled", "fallback"])
    def test_equal_to_reference(self, monkeypatch, path, spec, seed):
        if path == "compiled":
            if not HAVE_CC:
                pytest.skip("no C compiler on PATH")
            assert _sweep.STREAMS is not _sweep.NumpyStreams, "cc is on PATH but the streams did not load"
        else:
            monkeypatch.setattr(_sweep, "STREAMS", _sweep.NumpyStreams)
        _assert_bit_equal(spec, 2100, seed)

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_streams_reject_bad_arrays(self):
        streams = _sweep.STREAMS(7, 0, 4)
        for key in [(-1, 0, 4), (2**64, 0, 4), (7, 3, 2), (7, 2**64 - 1, 2**64 + 1)]:
            with pytest.raises(ValueError, match="not 64-bit"):
                _sweep.STREAMS(*key)
        means, facs = np.array([np.zeros(3), np.ones(3)]), np.array([np.eye(3)] * 2)
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)

        def values(proc=np.array([0, 1, 0, 1]), means=means, facs=facs, lo=lo, hi=hi):
            return streams.values(proc, means, facs, lo, hi, 100)

        for proc in [np.array([0, 2, 0, 0]), np.array([-1, 0, 0, 0]),
                     np.array([0, 1, 0, 1], dtype=np.int32), np.array([0, 1, 0]),
                     np.zeros((4, 1), dtype=np.int64)]:
            with pytest.raises(ValueError, match="model indices"):
                values(proc)
        for bad in [dict(facs=np.array([np.eye(2)] * 2)), dict(facs=np.eye(3)),
                    dict(facs=facs[:1]), dict(means=np.zeros((2, 2))), dict(means=np.zeros(6)),
                    dict(lo=np.full(2, -1.0)), dict(hi=np.full((3, 1), 1.0))]:
            with pytest.raises(ValueError, match="disagree in shape"):
                values(**bad)
        words = streams.words
        for bad in [words[:, :3].copy(), words.astype(np.int64), words.ravel().copy(),
                    np.asfortranarray(words)]:
            streams.words = bad
            for draw in (lambda: streams.head(0.5), values):
                with pytest.raises((ValueError, ctypes.ArgumentError)):
                    draw()
        streams.words = words
        assert values().shape == (4, 3)

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    @pytest.mark.parametrize("case", ["k1", "signed_zeros", "subnormal", "never_inside"])
    def test_values_equal_the_fallback(self, case):
        # the compiled loop against NumpyStreams.values on crafted models:
        # every bit, the sign of a zero and a NaN's included, and the stream
        # states after
        tiny = 3e-310  # subnormal: so are its products with the normals
        cap = 100
        if case == "k1":
            means, facs = np.array([[0.5], [-1.0]]), np.array([[[2.0]], [[0.3]]])
            lo, hi = np.array([-0.5]), np.array([1.0])
        elif case == "signed_zeros":
            # row 0 sums products of +-0.0 onto a mean of -0.0; row 1 is -0.0 itself
            fac = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, 0.5, -2.0]])
            means, facs = np.array([[-0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]]), np.array([fac, -fac])
            lo, hi = np.array([-np.inf, -np.inf, -1.0]), np.array([np.inf, np.inf, 2.0])
        elif case == "subnormal":
            fac = tiny * np.array([[1.0, -2.0, 0.5], [0.25, 1.0, 3.0], [-1.0, 0.0, 1.0]])
            means = np.array([[0.0, -tiny, tiny], [-0.0, tiny, 0.0]])
            facs = np.array([fac, fac.T])
            lo, hi = np.full(3, -2 * tiny), np.full(3, 2 * tiny)
        else:
            # an infinite and a NaN mean under finite bounds: no attempt lies
            # inside, so each event returns its attempt of index `cap`
            cap = 5
            means, facs = np.array([[np.inf, 0.0], [0.0, np.nan]]), np.array([np.eye(2)] * 2)
            lo, hi = np.full(2, -10.0), np.full(2, 10.0)
        n = 300
        proc = np.random.default_rng(1).integers(0, len(means), n)
        compiled, fallback = _sweep.CompiledStreams(5, 0, n), _sweep.NumpyStreams(5, 0, n)
        with np.errstate(invalid="ignore"):
            a = compiled.values(proc, means, facs, lo, hi, cap)
            b = fallback.values(proc, means, facs, lo, hi, cap)
        assert a.tobytes() == b.tobytes()
        assert stream_states(compiled.words) == [rng.bit_generator.state for rng in fallback.rngs]
        if case == "signed_zeros":
            assert np.signbit(a[:, :2]).any() and (~np.signbit(a[:, :2])).any()
        elif case == "subnormal":
            assert ((a != 0) & (np.abs(a) < np.finfo(float).tiny)).mean() > 0.5
        elif case == "never_inside":
            assert (np.isinf(a[:, 0]) | np.isnan(a[:, 1])).all()
            rngs = [np.random.default_rng((5, i)) for i in range(n)]
            for rng in rngs:
                rng.standard_normal((cap + 1) * 2)  # every attempt up to the cap's
            assert stream_states(compiled.words) == [rng.bit_generator.state for rng in rngs]


# ---------------------------------------------------------------------------
# load_events
# ---------------------------------------------------------------------------


class TestLoad:
    def _write(self, tmp_path, text):
        p = tmp_path / "events.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_empty_body(self, tmp_path):
        p = self._write(tmp_path, "tag,weight,process,x\n")
        d = load_events(p, ["x"])
        assert len(d) == 0

    def test_three_rows_full_schema(self, tmp_path):
        schema = BASE_VARIABLES
        header = "tag,weight,process," + ",".join(schema)
        rows = "\n".join(
            f"{tag},1.0,{proc}," + ",".join(str(float(i)) for i in range(len(schema)))
            for tag, proc in (("1", "signal"), ("-1", "wjets"), ("-1", "ttbar"))
        )
        p = self._write(tmp_path, header + "\n" + rows + "\n")
        d = load_events(p, schema)
        assert len(d) == 3
        assert d.schema == schema
        assert list(d.tags) == [1, -1, -1]

    def test_zero_tag_names_row(self, tmp_path):
        p = self._write(
            tmp_path,
            "tag,weight,process,x\n1,1.0,signal,0.5\n0,1.0,wjets,0.1\n",
        )
        with pytest.raises(DataError, match="row 2"):
            load_events(p, ["x"])

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path, "tag,weight,process,x\n")
        with pytest.raises(DataError, match="missing required columns.*'y'"):
            load_events(p, ["x", "y"])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = self._write(
            tmp_path,
            "tag,weight,process,x\n1,1.0,signal,0.5\n-1,1.0,wjets,oops\n",
        )
        with pytest.raises(DataError, match="row 2, column 'x'"):
            load_events(p, ["x"])

    @pytest.mark.parametrize("weight, x, column", [
        ("inf", "0.1", "weight"), ("-inf", "0.1", "weight"), ("nan", "0.1", "weight"),
        ("1.0", "inf", "x"),
    ])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, weight, x, column):
        p = self._write(
            tmp_path,
            f"tag,weight,process,x\n1,1.0,signal,0.5\n-1,{weight},wjets,{x}\n",
        )
        with pytest.raises(DataError, match=f"non-finite value .* at row 2, column '{column}'"):
            load_events(p, ["x"])

    @pytest.mark.parametrize("weight", [np.inf, np.nan, -1.0])
    def test_dataset_and_event_need_finite_non_negative_weights(self, weight):
        with pytest.raises(DataError, match="finite and non-negative"):
            Dataset(("x",), [[0.0], [1.0]], [1, -1], [1.0, weight], ["signal", "wjets"])

    def test_short_row_names_row(self, tmp_path):
        p = self._write(
            tmp_path,
            "tag,weight,process,x\n1,1.0,signal,0.5\n-1,1.0,wjets\n",
        )
        with pytest.raises(DataError, match="row 2 has 3 cells"):
            load_events(p, ["x"])

    def test_repeated_header_column_names_it(self, tmp_path):
        p = self._write(tmp_path, "tag,weight,process,x,x\n1,1.0,signal,0.5,2.0\n")
        with pytest.raises(DataError, match=r"names \['x'\] more than once"):
            load_events(p)

    def test_repeated_schema_name_rejected(self, tmp_path):
        p = self._write(tmp_path, "tag,weight,process,x\n1,1.0,signal,0.5\n")
        with pytest.raises(DataError, match=r"schema names \['x'\] more than once"):
            load_events(p, ["x", "x"])
        with pytest.raises(DataError, match="more than once"):
            Dataset(("x", "y", "x"), np.zeros((1, 3)), [1], [1.0], ["signal"])

    @pytest.mark.parametrize("rows_before", [0, 2000])
    def test_undecodable_byte_is_data_error(self, tmp_path, rows_before):
        # near the header the header read meets it; further on, numpy's reader
        # refuses the file and the row loop meets it
        p = tmp_path / "events.csv"
        p.write_bytes(b"tag,weight,process,x\n" + b"1,1.0,signal,0.5\n" * rows_before
                      + b"-1,1.0,wjets,\xff\n")
        for load in (load_events, _load_rows):
            with pytest.raises(DataError, match=f"{p}: not UTF-8 text"):
                load(p)

    def test_directory_is_data_error(self, tmp_path):
        for load in (load_events, _load_rows):
            with pytest.raises(DataError, match=f"cannot read event file {tmp_path}: Is a directory"):
                load(tmp_path)

    def test_cell_beyond_the_csv_field_limit(self, tmp_path):
        # numpy's reader has no field limit, and the row loop lifts csv's for its
        # read: so a file numpy's reader leaves to the row loop may hold long cells
        p = tmp_path / "events.csv"
        long_row = "1,1.0,signal,0.5," + "a" * 200_000 + "\n"
        p.write_text("tag,weight,process,x,junk\n" + long_row)
        limit = csv.field_size_limit()
        assert load_events(p, ["x"]).values.tolist() == [[0.5]]
        assert _load_rows(p, ["x"]).values.tolist() == [[0.5]]
        assert csv.field_size_limit() == limit
        p.write_text("tag,weight,process,x,junk\n" + long_row + "-1,1.0,wjets,0.25,\x1c\n")
        assert load_events(p, ["x"]).values.tolist() == [[0.5], [0.25]]
        p.write_text("tag,weight,process,x,junk\n" + long_row + "2,1.0,wjets,0.25,b\n")
        with pytest.raises(DataError, match=f"{p}: tag must be \\+1 or -1 at row 2, got '2'"):
            load_events(p, ["x"])
        assert csv.field_size_limit() == limit

    def test_unknown_columns_ignored_and_order_kept(self, tmp_path):
        p = self._write(
            tmp_path,
            "junk,tag,weight,process,x\n9,1,2.0,signal,3.0\n8,-1,1.0,ttbar,-1.0\n",
        )
        d = load_events(p, ["x"])
        assert list(d.column("x")) == [3.0, -1.0]

    def test_round_trip_preserves_order(self, tmp_path):
        spec = _spec_1d()
        d = generate_synthetic(spec, 100, seed=21)
        p = tmp_path / "d.csv"
        d.to_csv(p)
        d2 = load_events(p, d.schema)
        assert d.to_csv() == d2.to_csv()


_HEADER = "tag,weight,process,x,y\n"

#: (id, file text, whether numpy's reader takes the file without the row loop)
_CSV_CASES = [
    ("blank-lines", _HEADER + "\n1,1.0,signal,0.5,2\n\n\n-1,2.0,wjets,-0.5,1\n\n", True),
    ("crlf", _HEADER.replace("\n", "\r\n") + "1,1.0,signal,0.5,2\r\n-1,2,wjets,1,1\r\n", True),
    ("cr", _HEADER.replace("\n", "\r") + "1,1.0,signal,0.5,2\r-1,2,wjets,1,1\r", True),
    ("quoted-cells", _HEADER + '"1","1.0","signal","0.5","2"\n-1,2,"wjets",1,1\n', True),
    ("quoted-line-break", _HEADER + '1,1.0,signal,"3\n",2\n-1,2,wjets,1,1\n', True),
    ("quoted-cr-in-process", _HEADER + '1,1.0,"signal\r",3,2\n', True),
    ("doubled-quote-in-junk", "tag,weight,process,x,junk\n1,1,signal,2,\"a\"\"b\"\n", True),
    ("extra-cells", _HEADER + "1,1.0,signal,0.5,2,9,junk\n-1,2,wjets,1,1\n", True),
    ("process-is-the-last-column", "tag,weight,x,y,process\n1,1.0,0.5,2,signal\n", True),
    ("trailing-comma", _HEADER + "1,1.0,signal,0.5,2,\n", True),
    ("padded-cells", _HEADER + " 1 ,\t1.0\t, signal\t,  0.5,2  \n", True),
    ("unicode-space-padding", _HEADER + "1,1.0,\xa0signal\u2028,\u30000.5\x85,2\n", True),
    ("number-spellings",
     _HEADER + "+1,1.,signal,.5,-0.0\n-1,1E2,wjets,5e-324,2.4703282292062328e-324\n", True),
    ("extreme-values", _HEADER + "1,0,other,1e-310,1.7976931348623157e308\n", True),
    ("header-only", _HEADER, True),
    ("header-only-no-newline", _HEADER.rstrip("\n"), True),
    ("no-final-newline", _HEADER + "1,1.0,signal,0.5,2", True),
    ("hash-is-not-a-comment", "tag,weight,process,x,junk\n1,1.0,signal,0.5,a#b\n", True),
    ("whitespace-only-line", _HEADER + "1,1.0,signal,0.5,2\n \n", False),
    ("tab-only-line", _HEADER + "1,1.0,signal,0.5,2\n\t\n", False),
    ("vertical-tab-line", _HEADER + "1,1.0,signal,0.5,2\n\x0b\n", False),
    ("form-feed-line", _HEADER + "1,1.0,signal,0.5,2\n\x0c\n", False),
    ("quoted-empty-line", _HEADER + '1,1.0,signal,0.5,2\n""\n', False),
    ("underscore", _HEADER + "1,1.0,signal,1_0,2\n", False),
    ("hash-in-the-last-number", _HEADER + "1,1.0,signal,0.5,2#3\n", False),
    ("comment-line", _HEADER + "# a comment\n1,1.0,signal,0.5,2\n", False),
    ("quoted-comma", _HEADER + '1,1.0,signal,"1,0",2\n', False),
    ("hex", _HEADER + "1,1.0,signal,0x10,2\n", False),
    ("arabic-digit", _HEADER + "1,1.0,signal,\u0663,2\n", False),
    ("nan", _HEADER + "1,1.0,signal,nan,2\n", False),
    ("infinity", _HEADER + "1,Infinity,signal,0.5,2\n", False),
    ("overflow", _HEADER + "1,1.0,signal,0.5,1e500\n", False),
    ("empty-cell", _HEADER + "1,1.0,signal,,2\n", False),
    ("short-row", _HEADER + "1,1.0,signal,0.5,2\n-1,1.0,wjets\n", False),
    ("short-row-missing-an-unread-column", "tag,weight,process,x,junk\n1,1.0,signal,0.5\n", False),
    ("bom-in-a-row", _HEADER + "\ufeff1,1.0,signal,0.5,2\n", False),
    ("line-break-in-header", 'tag,weight,process,x,"y\n"\n1,1.0,signal,0.5,2\n', False),
    # numpy skips one line, and would read the rest of the header as an event
    ("line-break-in-header-looks-like-a-row",
     'tag,weight,process,x,"junk\n1,1.0,signal,0.5,2"\n-1,1.0,wjets,1,1\n', False),
    ("space-inside-process", _HEADER + "1,1.0,sig nal,0.5,2\n", False),
    ("nul-in-a-number", _HEADER + "1,1.0,signal,0.5\x00,2\n", False),
    ("nul-after-a-process", _HEADER + "1,1.0,signal\x00,0.5,2\n", False),
    ("nul-in-an-unread-column", "tag,weight,process,x,junk\n1,1.0,signal,0.5,a\x00b\n", False),
    ("information-separator-padding", _HEADER + "1,1.0,signal,\x1c0.5\x1f,2\n", False),
    ("tag-not-one", _HEADER + "1,1.0,signal,0.5,2\n0.5,1.0,wjets,0.5,2\n", False),
    ("negative-weight", _HEADER + "1,-1e-300,signal,0.5,2\n", False),
    ("unknown-process", _HEADER + "1,1.0,Signal,0.5,2\n", False),
]


def _outcome(load, path, schema=None):
    """Everything a load returns, bit for bit, or the message it raises."""
    try:
        d = load(path, schema)
    except DataError as exc:
        return str(exc)
    return (d.schema, d.values.shape, d.values.tobytes(), d.tags.tobytes(),
            d.weights.tobytes(), list(d.processes))


class TestLoadMatchesRowLoop:
    """`load_events` against the row loop `_load_rows`, its fallback and the
    source of every error message: the same bytes or the same error."""

    @pytest.mark.parametrize("text, fast", [c[1:] for c in _CSV_CASES],
                             ids=[c[0] for c in _CSV_CASES])
    @pytest.mark.parametrize("schema", [None, ["y", "x"]])
    def test_edge_case(self, tmp_path, recwarn, text, fast, schema):
        path = tmp_path / "events.csv"
        path.write_bytes(text.encode("utf-8"))
        if "junk" in text.partition("\n")[0]:
            schema = ["x"]  # a column of text is no variable
        expected = _outcome(_load_rows, path, schema)
        with mock.patch.object(dataset, "_load_rows", wraps=_load_rows) as rows:
            assert _outcome(load_events, path, schema) == expected
        assert rows.called != fast
        if not isinstance(expected, str):
            # numpy warns of blank lines and of a header-only file; the row loop does not
            assert not recwarn.list

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12),
           names=st.lists(st.text(st.sampled_from('ab ,"\n\r#x'), min_size=1, max_size=4),
                          max_size=4, unique=True))
    def test_to_csv_round_trip(self, tmp_path_factory, data, n, names):
        names = [v for v in names if v.strip() == v and v not in ("tag", "weight", "process")]

        def column(elements):
            return data.draw(st.lists(elements, min_size=n, max_size=n))

        values = [column(st.floats(allow_nan=False, allow_infinity=False)) for _ in names]
        args = (names, np.array(values, dtype=np.float64).reshape(len(names), n).T,
                column(st.sampled_from([1, -1])),
                np.array(column(st.floats(min_value=-0.0, allow_infinity=False))),
                column(st.sampled_from(PROCESSES)))
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(args[3].sum())
        if overflows:  # finite weights with an infinite total are refused
            with pytest.raises(DataError, match="total overflows"):
                Dataset(*args)
            return
        d = Dataset(*args)
        path = tmp_path_factory.mktemp("round-trip") / "events.csv"
        d.to_csv(path)
        expected = _outcome(_load_rows, path, names)
        with mock.patch.object(dataset, "_load_rows", wraps=_load_rows) as rows:
            assert _outcome(load_events, path, names) == expected
        # only a header with a quoted line break is left to the row loop
        assert rows.called == any("\n" in v or "\r" in v for v in names)
        assert expected == _outcome(lambda p, s: d, path)


class TestToCsv:
    def test_default_spec_matches_the_csv_writer(self):
        d = generate_synthetic(default_generator_spec(), 300, seed=7)
        assert d.to_csv() == reference_to_csv(d)

    def test_extreme_values_match_the_csv_writer(self, tmp_path):
        values = [[-0.0, 1e-300], [1e300, -1e300], [5e-324, 0.1], [3.0, 1e16]]
        d = Dataset(("a b", 'q"uote,d'), values, [1, -1, 1, -1], [0.0, 1e-300, 1e300, 2.5],
                    ["signal", "wjets", "ttbar", "other"])
        assert d.to_csv() == reference_to_csv(d)
        d.to_csv(tmp_path / "d.csv")
        assert load_events(tmp_path / "d.csv", d.schema).to_csv() == reference_to_csv(d)

    def test_carriage_return_in_a_name_round_trips(self, tmp_path):
        d = Dataset(("a\ra", "b"), [[1.5, -2.0], [0.25, 3.0]], [1, -1], [1.0, 2.0],
                    ["signal", "wjets"])
        text = d.to_csv()
        assert text.partition("\n")[0] == 'tag,weight,process,"a\ra",b'
        assert text.partition("\n")[2] == reference_to_csv(d).partition("\n")[2]
        d.to_csv(tmp_path / "d.csv")
        for schema in (None, d.schema):
            back = load_events(tmp_path / "d.csv", schema)
            assert back.schema == d.schema and back.to_csv() == text

    def test_empty_schema_and_no_events(self):
        for d in (Dataset((), np.zeros((2, 0)), [1, -1], [1.0, 2.0], ["signal", "other"]),
                  Dataset(("x",), np.zeros((0, 1)), [], [], [])):
            assert d.to_csv() == reference_to_csv(d)


# ---------------------------------------------------------------------------
# preselection
# ---------------------------------------------------------------------------


def _random_preselection_dataset(n, seed):
    rng = np.random.default_rng(seed)
    schema = BASE_VARIABLES + PRESELECTION_VARIABLES
    values = np.zeros((n, len(schema)))
    col = {v: i for i, v in enumerate(schema)}
    values[:, col["met"]] = rng.uniform(200, 400, n)
    values[:, col["pt_jet1"]] = rng.uniform(80, 200, n)
    values[:, col["eta_jet1"]] = rng.uniform(-3.5, 3.5, n)
    values[:, col["ht"]] = rng.uniform(150, 600, n)
    values[:, col["pt_lep"]] = rng.uniform(2, 40, n)
    values[:, col["eta_lep"]] = rng.uniform(-3, 3, n)
    values[:, col["is_muon"]] = rng.integers(0, 2, n)
    values[:, col["pt_lep2"]] = rng.uniform(0, 40, n)
    values[:, col["pt_jet2"]] = rng.uniform(0, 120, n)
    values[:, col["dphi_j1j2"]] = rng.uniform(0, np.pi, n)
    tags = rng.choice([-1, 1], n)
    return Dataset(schema, values, tags, np.ones(n), ["other"] * n)


def _passes_default_cuts(v: dict) -> bool:
    """Independent per-event predicate on {variable: value}, written directly
    from the cut list."""
    if not v["met"] > 280:
        return False
    if not (v["pt_jet1"] > 110 and abs(v["eta_jet1"]) < 2.4):
        return False
    if not v["ht"] > 200:
        return False
    if v["is_muon"] >= 0.5:
        if not (v["pt_lep"] > 3.5 and abs(v["eta_lep"]) < 2.4):
            return False
    else:
        if not (v["pt_lep"] > 5.0 and abs(v["eta_lep"]) < 2.5):
            return False
    if v["pt_lep2"] > 20:
        return False
    if v["pt_jet2"] > 60 and not v["dphi_j1j2"] < 2.5:
        return False
    return True


class TestPreselection:
    def test_met_threshold(self):
        d = _random_preselection_dataset(50, seed=1)
        col = d.schema.index("met")
        values = np.array(d.values, copy=True)
        values[:, col] = 279.0
        low = Dataset(d.schema, values, d.tags, d.weights, list(d.processes))
        assert len(apply_preselection(low)) == 0

    def test_matches_per_event_predicate_oracle(self):
        d = _random_preselection_dataset(100, seed=3)
        kept = apply_preselection(d)
        mask = [_passes_default_cuts(dict(zip(d.schema, row))) for row in d.values]
        assert kept.to_csv() == d.select(mask).to_csv()

    def test_idempotent(self):
        d = _random_preselection_dataset(200, seed=4)
        once = apply_preselection(d)
        twice = apply_preselection(once)
        assert once.to_csv() == twice.to_csv()

    def test_missing_variable_errors(self):
        d = _random_preselection_dataset(10, seed=5)
        kept = [v for v in d.schema if v != "dphi_j1j2"]
        d = Dataset(kept, d.matrix(kept), d.tags, d.weights, list(d.processes))
        with pytest.raises(DataError, match="'dphi_j1j2' not in schema"):
            apply_preselection(d)


# ---------------------------------------------------------------------------
# split_samples
# ---------------------------------------------------------------------------


class TestSplit:
    def test_eight_events(self):
        d = generate_synthetic(_spec_1d(), 8, seed=1)
        s = split_samples(d, seed=3)
        assert (len(s.train), len(s.test), len(s.assess)) == (2, 2, 4)

    def test_deterministic(self):
        d = generate_synthetic(_spec_1d(), 100, seed=1)
        a = split_samples(d, seed=9)
        b = split_samples(d, seed=9)
        assert a.train.to_csv() == b.train.to_csv()
        assert a.assess.to_csv() == b.assess.to_csv()

    def test_partition_multiset(self):
        d = generate_synthetic(_spec_1d(), 501, seed=2)
        s = split_samples(d, seed=4)
        whole = sorted(d.to_csv().splitlines()[1:])
        parts = sorted(
            s.train.to_csv().splitlines()[1:]
            + s.test.to_csv().splitlines()[1:]
            + s.assess.to_csv().splitlines()[1:]
        )
        assert whole == parts
        assert abs(len(s.train) - len(s.test)) <= 1

    def test_paper_scale_counts(self):
        d = generate_synthetic(_spec_1d(), 200_000, seed=6)
        s = split_samples(d, seed=1, qa_fraction=0.5)
        assert len(s.train) == 50_000
        assert len(s.test) == 50_000
        assert len(s.assess) == 100_000

    def test_assess_process_isolation(self):
        d = generate_synthetic(default_generator_spec(), 400, seed=3)
        s = split_samples(d, seed=5, assess_processes=("ttbar",))
        for part in (s.train, s.test):
            assert "ttbar" not in set(part.processes)
        assert "ttbar" in set(s.assess.processes)

    def test_too_small_errors(self):
        d = generate_synthetic(_spec_1d(), 8, seed=1)
        with pytest.raises(DataError):
            split_samples(d.select(np.arange(3)), seed=1)
