import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_mutations import BYTE_FORMS, ODD_VALUES, REFUSED, mutated, paths

import qamlz
from qamlz import AnnealSchedule, ChainConfig, FomParams, ZoomConfig, cli, fom, score_events
from qamlz._codec import MAX_DEPTH, read_json
from qamlz.cli import main, prepare_data, read_config
from qamlz.errors import ConfigError

DATA = Path(__file__).parent / "data"


def _base_config(tmp_path: Path, **over) -> Path:
    cfg = {
        "seed": 11,
        "out_dir": str(tmp_path / "out"),
        "data": {
            "generator": {
                "schema": ["v0", "v1"],
                "processes": {
                    "signal": {"mean": [1.5, 1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                    "wjets": {"mean": [-1.5, -1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                },
                "signal_fraction": 0.5,
                "background_fractions": {"wjets": 1.0},
                "s_tot": 120.0,
                "b_tot": 480.0,
            },
            "n_events": 600,
        },
        "variables": ["v0", "v1"],
        "n_bins": 8,
        "zoom": {
            "iterations": 2,
            "delta": 0.1,
            "offset_range": 1,
            "solver": "exact",
            "p_flip": [0.0],
            "q_flip": [0.0],
            "schedule": {"n_g": [1], "n_e": [1]},
        },
        "fom": {"f": 0.2, "min_counts": 5, "grid_points": 101},
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def _without(doc: dict, *path: str) -> dict:
    """`doc` with the key at `path` deleted, in place."""
    *parents, key = path
    node = doc
    for name in parents:
        node = node[name]
    del node[key]
    return doc


def _set(doc: dict, path: str, value) -> dict:
    """`doc` with the value at the dotted `path` set, in place."""
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


def _external_config(tmp_path: Path, command) -> Path:
    """The base config with the external solver `command`."""
    cfg = _base_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["zoom"].update(solver="external", external_command=command)
    cfg.write_text(json.dumps(doc))
    return cfg


def _reply_stub(path, form: str, value=None) -> list[str]:
    """An external-solver command that replies to each problem with one
    sample, every spin up, and its energy, mutated at `path` by
    `json_mutations.mutated(reply, path, form, value)`."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from json_mutations import mutated; p = json.load(sys.stdin); "
              "e = sum(p['h']) + sum(v for _, _, v in p['J']); "
              "reply = {'samples': [{'spins': [1] * p['n'], 'energy': e}], "
              "'broken_chain_fraction': 0.0}; "
              "sys.stdout.buffer.write(mutated(reply, *json.loads(sys.argv[2])))")
    return [sys.executable, "-c", script, str(Path(__file__).parent),
            json.dumps([path, form, value])]


def _read_csv(path: Path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_writes_header_and_rows(self, tmp_path):
        cfg = _base_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        out = tmp_path / "out" / "events.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == "tag,weight,process,v0,v1"
        assert len(lines) == 601

    def test_repeat_is_byte_identical(self, tmp_path):
        cfg = _base_config(tmp_path)
        main(["gen", "--config", str(cfg)])
        first = (tmp_path / "out" / "events.csv").read_bytes()
        main(["gen", "--config", str(cfg)])
        assert (tmp_path / "out" / "events.csv").read_bytes() == first

    def test_assess_scale_yields(self, tmp_path):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["data"]["generator"]["s_tot"] = 7000.0
        doc["data"]["generator"]["b_tot"] = 200_000.0
        doc["data"]["n_events"] = 2000
        cfg.write_text(json.dumps(doc))
        main(["gen", "--config", str(cfg)])
        rows = _read_csv(tmp_path / "out" / "events.csv")
        s = sum(float(r["weight"]) for r in rows if r["tag"] == "1")
        b = sum(float(r["weight"]) for r in rows if r["tag"] == "-1")
        assert s == pytest.approx(7000.0, rel=1e-12)
        assert b == pytest.approx(200_000.0, rel=1e-12)


@pytest.mark.parametrize("schema", [None, ["x", "x"]])
def test_repeated_csv_column_is_data_error(tmp_path, capsys, schema):
    path = tmp_path / "events.csv"
    header = "tag,weight,process,x,x" if schema is None else "tag,weight,process,x"
    path.write_text(header + "\n1,1.0,signal,0.5,2.0\n-1,2.0,wjets,-0.5,1.0\n")
    cfg = _base_config(tmp_path, data={"csv": str(path), "schema": schema})
    assert main(["train", "--config", str(cfg)]) == 3
    assert "'x'" in capsys.readouterr().err


def test_csv_schema_read_from_quoted_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text('tag,weight,process,"a,b",c\n1,1.0,signal,0.5,2.0\n-1,2.0,wjets,-0.5,1.0\n')
    data = prepare_data(read_config({"data": {"csv": str(path)}}))
    assert tuple(data.schema) == ("a,b", "c")
    np.testing.assert_array_equal(data.values, [[0.5, 2.0], [-0.5, 1.0]])


class TestTrain:
    def test_minimal_run_and_outputs(self, tmp_path):
        cfg = _base_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert len(model["mu"]) == 2 * 3  # 2 vars, offsets -1..1
        log_lines = (tmp_path / "out" / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        rec = json.loads(log_lines[0])
        assert set(rec) == {"t", "sigma", "train_distance", "test_distance",
                            "n_candidates", "broken_chain_fraction"}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _base_config(tmp_path)
        main(["train", "--config", str(cfg)])
        first_model = (tmp_path / "out" / "model.json").read_bytes()
        first_log = (tmp_path / "out" / "train_log.jsonl").read_bytes()
        main(["train", "--config", str(cfg)])
        assert (tmp_path / "out" / "model.json").read_bytes() == first_model
        assert (tmp_path / "out" / "train_log.jsonl").read_bytes() == first_log

    def test_explicit_defaults_match_absent_keys(self, tmp_path):
        # every documented default written out gives the bytes of leaving it out
        short = {"data": {"generator": {"preset": "default"}, "n_events": 600},
                 "zoom": {"offset_range": 0, "solver": "exact"}}
        full = {
            "seed": 0,
            "data": {"generator": {"preset": "default"}, "n_events": 600,
                     "preselection": False, "qa_fraction": 0.5, "assess_processes": []},
            "variables": "beta", "pca": False, "n_bins": 50,
            "zoom": {
                "iterations": 8, "base": 0.5, "delta": 0.025, "offset_range": 0,
                "cutoff_pct": 0.0, "fixing": False, "solver": "exact",
                "p_flip": None, "q_flip": None, "lambda": 0.0,
                "schedule": {"n_reads": 200, "sweeps": 1000, "t_hot": None, "t_cold": 0.01,
                             "n_g": [50, 10], "n_e": [1], "d": [None]},
                "chain": {"length": 4, "strength": 1.0, "strength_schedule": None},
                "external_command": None, "external_timeout": None,
            },
        }
        outputs = []
        for name, doc in (("short", short), ("full", full)):
            out = tmp_path / name
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**doc, "out_dir": str(out)}))
            assert main(["train", "--config", str(path)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("model.json", "train_log.jsonl")])
        assert outputs[0] == outputs[1]

    def test_solver_flag_overrides(self, tmp_path):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["zoom"]["schedule"].update({"n_reads": 10, "sweeps": 50})
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--solver", "sa"]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["settings"]["solver"] == "sa"

    def test_reference_configuration(self, tmp_path):
        # the headline setting: base variables as density-ratio weak
        # classifiers, augmentation (0.025, 3), 85% coupler cutoff, no fixing
        cfg_path = tmp_path / "ref.json"
        cfg_path.write_text(json.dumps({
            "seed": 5,
            "out_dir": str(tmp_path / "out"),
            "data": {"generator": {"preset": "default"}, "n_events": 4000,
                     "preselection": True},
            "variables": "beta",
            "n_bins": 20,
            "zoom": {"iterations": 2, "delta": 0.025, "offset_range": 3,
                     "cutoff_pct": 85.0, "fixing": False, "solver": "sa",
                     "schedule": {"n_reads": 12, "sweeps": 60,
                                  "n_g": [2, 1], "n_e": [1]}},
            "fom": {"f": 0.2, "min_counts": 10, "grid_points": 101},
        }))
        assert main(["train", "--config", str(cfg_path)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert len(model["mu"]) == 12 * 7  # 12 variables, offsets -3..3
        settings = model["settings"]
        assert (settings["delta"], settings["offset_range"]) == (0.025, 3)
        assert settings["cutoff_pct"] == 85.0 and settings["fixing"] is False
        log = [json.loads(l) for l in
               (tmp_path / "out" / "train_log.jsonl").read_text().splitlines()]
        assert log[1]["train_distance"] <= log[0]["train_distance"]
        assert main(["eval", "--config", str(cfg_path)]) == 0


class TestEval:
    def test_eval_after_train(self, tmp_path):
        cfg = _base_config(tmp_path)
        main(["train", "--config", str(cfg)])
        assert main(["eval", "--config", str(cfg)]) == 0
        rows = _read_csv(tmp_path / "out" / "fom_curve.csv")
        assert list(rows[0]) == ["cut", "fom", "s_yield", "b_yield",
                                 "n_signal", "n_background", "valid"]
        summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
        # stored best value re-validates through the fom operation
        best = fom(summary["s_at_best"], summary["b_at_best"], FomParams(f=0.2))
        assert summary["best_fom"] == pytest.approx(best, rel=1e-12)
        # and so does every written curve row with non-degenerate yields
        for r in rows:
            s, b = float(r["s_yield"]), float(r["b_yield"])
            if s > 0 and b > 0:
                assert float(r["fom"]) == pytest.approx(fom(s, b, FomParams(f=0.2)),
                                                        rel=1e-12)
        # separable toy: beats the no-cut baseline
        baseline = fom(60.0, 240.0, FomParams(f=0.2))  # assess holds ~half the yields
        assert summary["best_fom"] > baseline
        overtraining = json.loads((tmp_path / "out" / "overtraining.json").read_text())
        assert set(overtraining) <= {"signal", "wjets"}
        for rec in overtraining.values():
            assert 0.0 <= rec["statistic"] <= 1.0

    def test_zero_model_flat_curve(self, tmp_path):
        cfg = _base_config(tmp_path)
        main(["train", "--config", str(cfg)])
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        doc["mu"] = [0.0] * len(doc["mu"])
        model_path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(cfg)]) == 0
        rows = _read_csv(tmp_path / "out" / "fom_curve.csv")
        valid_foms = {float(r["fom"]) for r in rows if r["valid"] == "1"}
        assert len(valid_foms) == 1  # flat at the baseline
        summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
        assert summary["best_fom"] == pytest.approx(valid_foms.pop())

    def test_missing_model_is_data_error(self, tmp_path):
        cfg = _base_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("text", [
        '{"mu": [1, 2], "del', '{"mu": [1, 2]}', "[1]",
        '{"mu": [1, 2], "delta": 0.1, "offset_range": 0, "pipeline": 5}',
        json.dumps(_without(json.loads((DATA / "model_density_pca.json").read_text()),
                            "pipeline", "weak", "edges")),
    ], ids=["truncated", "missing-key", "not-an-object", "pipeline-not-an-object",
            "density-without-edges"])
    def test_malformed_model_is_data_error(self, tmp_path, capsys, text):
        cfg = _base_config(tmp_path)
        model_path = tmp_path / "out" / "model.json"
        model_path.parent.mkdir()
        model_path.write_text(text)
        assert main(["eval", "--config", str(cfg)]) == 3
        assert str(model_path) in capsys.readouterr().err

    @pytest.mark.parametrize("literal, over", [
        ("model_normalized.json", {"weak_mode": "normalized"}),
        ("model_density_pca.json", {"pca": True}),
    ], ids=["normalized", "density-pca"])
    def test_model_file_is_pinned(self, tmp_path, monkeypatch, literal, over):
        # `train` writes the checked-in model byte for byte, and `eval` reads it
        # back to a model that scores like the one `train` held in memory
        trained, read = [], []
        run_qamlz, fom_scan_dataset = cli.run_qamlz, cli.fom_scan_dataset
        monkeypatch.setattr(cli, "run_qamlz",
                            lambda *a, **k: trained.append(run_qamlz(*a, **k)) or trained[-1])
        monkeypatch.setattr(cli, "fom_scan_dataset",
                            lambda m, *a, **k: read.append(m) or fom_scan_dataset(m, *a, **k))
        cfg = _base_config(tmp_path, **over)
        assert main(["train", "--config", str(cfg)]) == 0
        pinned = DATA / literal
        assert (tmp_path / "out" / "model.json").read_text() == pinned.read_text()
        cfg = _base_config(tmp_path, model=str(pinned), **over)
        assert main(["eval", "--config", str(cfg)]) == 0
        probe = prepare_data(read_config(json.loads(cfg.read_text()), seed=99))
        assert score_events(read[0], probe).tobytes() == score_events(trained[0], probe).tobytes()

    def test_model_without_trajectory_and_settings_loads(self, tmp_path):
        doc = json.loads((DATA / "model_normalized.json").read_text())
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(_without(_without(doc, "trajectory"), "settings")))
        cfg = _base_config(tmp_path, model=str(model_path), weak_mode="normalized")
        assert main(["eval", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("path, value", [
        ("offset_range", 0.7),
        ("mu", ["0.5"]),
        ("extra", 1),
        ("pipeline.weak.mode_", "density"),
        ("trajectory", [{"t": "0"}]),
    ], ids=["fractional-offset-range", "string-weight", "unknown-key", "unknown-nested-key",
            "string-in-trajectory"])
    def test_model_value_of_wrong_kind_is_data_error(self, tmp_path, capsys, path, value):
        # offset_range 0 makes int(0.7) a model of the right size
        cfg = _base_config(tmp_path, zoom={"iterations": 1, "offset_range": 0, "solver": "exact",
                                           "schedule": {"n_g": [1]}})
        assert main(["train", "--config", str(cfg)]) == 0
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        if path == "mu":
            value = value * len(doc["mu"])
        model_path.write_text(json.dumps(_set(doc, path, value)))
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"malformed model file {model_path}: model" in err
        assert not (tmp_path / "out" / "fom_curve.csv").exists()

    def test_model_of_wrong_size_is_data_error(self, tmp_path, capsys):
        cfg = _base_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        doc["mu"] = doc["mu"][:-1]
        model_path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(cfg)]) == 3
        assert "the model has 6 spins" in capsys.readouterr().err

    @pytest.mark.parametrize("over, message", [
        ({"delta": -0.5}, "delta must be > 0 when offset_range > 0"),
        ({"offset_range": -1}, "offset_range must be >= 0"),
        # offsets of +-inf split nothing
        ({"delta": 1e308, "offset_range": 2},
         "delta * offset_range must be finite, got 1e+308 * 2"),
        ({"offset_range": 2**64}, f"offset_range must be <= 1024, got {2**64}"),
    ], ids=["negative-delta", "negative-offset-range", "infinite-offsets", "huge-offset-range"])
    def test_model_layout_the_augmented_set_rejects_is_data_error(self, tmp_path, capsys,
                                                                  over, message):
        cfg = _base_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        model_path = tmp_path / "out" / "model.json"
        doc = json.loads(model_path.read_text())
        assert doc["offset_range"] == 1
        model_path.write_text(json.dumps({**doc, **over}))
        assert main(["eval", "--config", str(cfg)]) == 3
        assert f"malformed model file {model_path}: {message}\n" in capsys.readouterr().err
        for name in ("fom_curve.csv", "eval_summary.json", "overtraining.json"):
            assert not (tmp_path / "out" / name).exists()

    def test_model_path_that_is_a_directory_is_data_error(self, tmp_path):
        cfg = _base_config(tmp_path, model=str(tmp_path))
        assert main(["eval", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("literal, path, value, message", [
        ("model_normalized.json", "pipeline.weak.lo", [],
         "lo and hi must have shape (2,), one entry per variable, got (0,) and (2,)"),
        ("model_normalized.json", "pipeline.weak.hi", [], "lo and hi must have shape (2,)"),
        ("model_density_pca.json", "pipeline.pca.mean", [],
         "PCA mean, components and eigenvalues must have shapes (k,), (k, k) and (k,), "
         "got (0,), (2, 2) and (2,)"),
        ("model_density_pca.json", "pipeline.pca.components", [],
         "got (2,), (0,) and (2,)"),
        ("model_density_pca.json", "pipeline.pca.eigenvalues", [1.0],
         "got (2,), (2, 2) and (1,)"),
        ("model_density_pca.json", "pipeline.weak.responses", [],
         "bin responses must have shape (2, 8), one per bin of every variable, got (0,)"),
        ("model_density_pca.json", "pipeline.weak.responses", [-1], "got (1,)"),
        ("model_density_pca.json", "pipeline.weak.responses", [[1.0]], "got (1, 1)"),
        ("model_density_pca.json", "pipeline.weak.edges", [[1.0]],
         "bin edges must be a list of at least 2 numbers, got shape (1, 1)"),
        ("model_density_pca.json", "pipeline.weak.edges", [0.0],
         "bin edges must be a list of at least 2 numbers, got shape (1,)"),
        ("model_density_pca.json", "pipeline.variables", ["v0"],
         "pca is 2 wide, not len(variables) = 1"),
        ("model_normalized.json", "pipeline.variables", ["v0"],
         "weak has 2 classifiers, not len(variables) = 1"),
        # used to raise numpy's RuntimeError for more than 32 dimensions (exit 1)
        ("model_normalized.json", "mu", json.loads("[" * 40 + "0.5" + "]" * 40),
         f"mu has shape {(1,) * 40}, the model has 6 spins"),
    ], ids=["lo", "hi", "pca-mean", "pca-components", "pca-eigenvalues", "responses-empty",
            "responses-flat", "responses-one-bin", "edges-2d", "edges-one", "pca-width",
            "weak-width", "mu-40-deep"])
    def test_model_array_of_wrong_shape_is_data_error(self, tmp_path, capsys, literal, path,
                                                      value, message):
        # lo, hi, the PCA mean and components, the responses and 2-D edges
        # used to end in a traceback (exit 1) while scoring; the eigenvalues
        # and a single edge scored with exit 0, and a width that does not
        # match failed only once scoring began, without naming the file
        model_path = tmp_path / "model.json"
        doc = json.loads((DATA / literal).read_text())
        model_path.write_text(json.dumps(_set(doc, path, value)))
        over = {"pca": True} if "pca" in literal else {"weak_mode": "normalized"}
        cfg = _base_config(tmp_path, model=str(model_path), **over)
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"malformed model file {model_path}: " in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("form", BYTE_FORMS)
    def test_model_that_is_not_a_document_is_data_error(self, tmp_path, capsys, form):
        # "deep" and "deep-990" used to end in a RecursionError (exit 1),
        # which eval did not catch
        model_path = tmp_path / "model.json"
        doc = json.loads((DATA / "model_normalized.json").read_text())
        model_path.write_bytes(mutated(doc, ("offset_range",), form))
        cfg = _base_config(tmp_path, model=str(model_path), weak_mode="normalized")
        assert main(["eval", "--config", str(cfg)]) == 3
        assert f"model file {model_path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestScan:
    def _scan_config(self, tmp_path, **scan_over):
        scan = {
            "delta": [0.1],
            "offset_range": [1],
            "cutoff_pct": [0.0],
            "fixing": [False],
            "n_runs": 2,
        }
        scan.update(scan_over)
        return _base_config(tmp_path, scan=scan)

    def test_one_point_grid_matches_train_eval(self, tmp_path):
        cfg = self._scan_config(tmp_path)
        assert main(["scan", "--config", str(cfg)]) == 0
        rows = _read_csv(tmp_path / "out" / "scan.csv")
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        # deterministic exact pipeline: the scan mean equals a single
        # train+eval best fom and the spread is zero
        main(["train", "--config", str(cfg)])
        main(["eval", "--config", str(cfg)])
        summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
        assert float(rows[0]["mean_fom"]) == pytest.approx(summary["best_fom"], rel=1e-12)
        assert float(rows[0]["std_fom"]) == 0.0

    def test_grid_cartesian_rows(self, tmp_path):
        cfg = self._scan_config(tmp_path, delta=[0.05, 0.1], cutoff_pct=[0.0, 50.0])
        assert main(["scan", "--config", str(cfg)]) == 0
        rows = _read_csv(tmp_path / "out" / "scan.csv")
        assert len(rows) == 4
        combos = {(r["delta"], r["cutoff_pct"]) for r in rows}
        assert len(combos) == 4

    def test_infeasible_point_marked_and_exit_code(self, tmp_path):
        # offset_range 5 -> 2 vars * 11 = 22 spins, 231 couplers > budget 100
        cfg = self._scan_config(tmp_path, offset_range=[1, 5], coupler_budget=100)
        code = main(["scan", "--config", str(cfg)])
        assert code == 4
        rows = _read_csv(tmp_path / "out" / "scan.csv")
        statuses = {r["offset_range"]: r["status"] for r in rows}
        assert statuses["5"] == "no embedding"
        assert statuses["1"] == "ok"
        infeasible = [r for r in rows if r["status"] == "no embedding"][0]
        assert infeasible["mean_fom"] == ""

    def test_parallel_jobs_identical_output(self, tmp_path):
        cfg = self._scan_config(tmp_path, delta=[0.05, 0.1])
        main(["scan", "--config", str(cfg)])
        seq = (tmp_path / "out" / "scan.csv").read_bytes()
        main(["scan", "--config", str(cfg), "--jobs", "2"])
        assert (tmp_path / "out" / "scan.csv").read_bytes() == seq

    def test_pool_is_no_larger_than_the_grid(self, tmp_path, monkeypatch):
        # a process pool starts all its workers at the first submit
        sizes = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)  # as each worker does, here in this process

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "_worker_context", None)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli, "run_uncertainty",
                            lambda *args, **kwargs: SimpleNamespace(mean=0.0, std=0.0))
        # more usable CPUs than grid points, whatever the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        cfg = self._scan_config(tmp_path, delta=[0.05, 0.1])
        assert main(["scan", "--config", str(cfg), "--jobs", "64"]) == 0
        assert sizes == [2]
        assert main(["scan", "--config", str(cfg), "--jobs", "2"]) == 0
        assert sizes == [2, 2]

    def test_pool_is_no_larger_than_the_usable_cpus(self, tmp_path, monkeypatch):
        sizes = []

        def fake_pool(max_workers, initializer, initargs):  # records the size, starts no process
            sizes.append(max_workers)
            initializer(*initargs)
            return contextlib.nullcontext(SimpleNamespace(map=map))

        monkeypatch.setattr(cli, "_worker_context", None)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", fake_pool)
        monkeypatch.setattr(cli, "run_uncertainty",
                            lambda *args, **kwargs: SimpleNamespace(mean=0.0, std=0.0))
        cfg = self._scan_config(tmp_path, delta=[0.05, 0.1, 0.15, 0.2])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert main(["scan", "--config", str(cfg), "--jobs", "64"]) == 0
        assert sizes == [3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert main(["scan", "--config", str(cfg), "--jobs", "4"]) == 0
        assert sizes == [3]  # one usable CPU: the grid runs in this process
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["scan", "--config", str(cfg), "--jobs", "64"]) == 0
        assert sizes == [3, 2]

    @pytest.mark.parametrize("offset_range", [3, 5])
    @pytest.mark.parametrize("cutoff", [0.0, 85.0])
    def test_budget_counts_pruned_couplers(self, monkeypatch, offset_range, cutoff):
        # the scan's budget check counts exactly the couplers prune keeps
        from qamlz import build_couplings_from_signs, effective_problem, prune, sign_pm1
        from qamlz import cli

        n_var = 2
        n = n_var * (2 * offset_range + 1)
        rng = np.random.default_rng(offset_range)
        cm = build_couplings_from_signs(sign_pm1(rng.uniform(-1, 1, size=(40, n))),
                                        rng.choice([-1, 1], size=40), np.ones(40), n_var)
        kept = prune(effective_problem(cm, np.zeros(n), 1.0), cutoff).n_couplers
        monkeypatch.setattr(cli, "run_uncertainty",
                            lambda *args, **kwargs: SimpleNamespace(mean=0.0, std=0.0))
        monkeypatch.setattr(cli._ScanContext, "prepared_for", lambda self, zcfg: (None, None))
        zcfg = ZoomConfig(delta=0.025, offset_range=offset_range, cutoff_pct=cutoff)

        def status(budget):
            pipeline = SimpleNamespace(weak=SimpleNamespace(n_classifiers=n_var))
            ctx = cli._ScanContext(SimpleNamespace(assess=None), pipeline, FomParams(), 2, budget)
            return cli._scan_point(zcfg, ctx)[-1]

        assert status(kept) == "ok"
        assert status(kept - 1) == "no embedding"

    #: two layouts, (0.1, 1) of 6 spins and (0.1, 5) of 22 spins, each with
    #: two feasible points; at cutoff 0 the 231 couplers of offset_range 5
    #: are over the budget of 100
    _LAYOUTS = {"delta": [0.1], "offset_range": [1, 5], "cutoff_pct": [0.0, 80.0],
                "fixing": [False, True], "n_runs": 3, "coupler_budget": 100}

    def _layouts_config(self, tmp_path) -> Path:
        cfg = self._scan_config(tmp_path, **self._LAYOUTS)
        doc = json.loads(cfg.read_text())
        doc["zoom"] = {"iterations": 2, "solver": "sa",
                       "schedule": {"n_reads": 4, "sweeps": 8, "n_g": [2, 1], "n_e": [2]}}
        cfg.write_text(json.dumps(doc))
        return cfg

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_matches_point_by_point_reference(self, tmp_path, jobs):
        # every grid point prepared, trained seed by seed and scored on its
        # own, from public pieces alone
        cfg_path = self._layouts_config(tmp_path)
        cfg = read_config(json.loads(cfg_path.read_text()))
        split = cli.prepare_split(cfg)
        pipeline = qamlz.fit_feature_pipeline(split.train, **cfg.features)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(cli.SCAN_HEADER)
        for zcfg in cfg.grid:
            point = (zcfg.delta, zcfg.offset_range, zcfg.cutoff_pct, zcfg.fixing)
            if (zcfg.offset_range, zcfg.cutoff_pct) == (5, 0.0):
                writer.writerow((*point, "", "", "no embedding"))
                continue
            foms = []
            for k in range(cfg.n_runs):
                problem = qamlz.prepare(split.train, split.test, pipeline, zcfg.delta,
                                        zcfg.offset_range)
                model = qamlz.run_qamlz(problem, dataclasses.replace(zcfg, seed=zcfg.seed + k))
                foms.append(qamlz.fom_scan_dataset(model, split.assess, cfg.fom).best_fom)
            report = qamlz.UncertaintyReport.from_foms(foms)
            writer.writerow((*point, report.mean, report.std, "ok"))
        assert main(["scan", "--config", str(cfg_path), "--jobs", jobs]) == 4
        assert (tmp_path / "out" / "scan.csv").read_bytes() == want.getvalue().encode()

    def test_serial_scan_prepares_once_per_layout(self, tmp_path, monkeypatch):
        layouts = []
        prepare = cli.prepare
        monkeypatch.setattr(cli, "prepare", lambda train, test, pipeline, *layout:
                            layouts.append(layout) or prepare(train, test, pipeline, *layout))
        assert main(["scan", "--config", str(self._layouts_config(tmp_path))]) == 4
        assert layouts == [(0.1, 1), (0.1, 5)]

    def test_tasks_carry_only_the_point(self, tmp_path, monkeypatch):
        # the split and the pipeline go to each worker once, not with each task
        tasks, pools = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append(initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.extend(items)
                return [(*(getattr(z, a) for a in cli._AXES), 0.0, 0.0, "ok") for z in items]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["scan", "--config", str(self._layouts_config(tmp_path)),
                     "--jobs", "2"]) == 0
        assert len(tasks) == 8 and len(pools) == 1
        assert all(isinstance(t, ZoomConfig) for t in tasks)
        assert max(len(pickle.dumps(t)) for t in tasks) < 10_000
        assert len(pickle.dumps(pools[0])) > 10_000  # the split travels in the initargs

    def test_spawned_workers_give_the_serial_rows(self, tmp_path):
        # nothing a worker reads comes from pages inherited through fork
        cfg = read_config(json.loads(self._layouts_config(tmp_path).read_text()))
        split = cli.prepare_split(cfg)
        pipeline = qamlz.fit_feature_pipeline(split.train, **cfg.features)
        context = (split, pipeline, cfg.fom, cfg.n_runs, cfg.coupler_budget)
        serial = [cli._scan_point(zcfg, cli._ScanContext(*context)) for zcfg in cfg.grid]
        with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"),
                                 initializer=cli._start_scan_worker, initargs=context) as pool:
            assert list(pool.map(cli._scan_point, cfg.grid, timeout=120)) == serial

    def test_missing_scan_section(self, tmp_path):
        cfg = _base_config(tmp_path)
        assert main(["scan", "--config", str(cfg)]) == 2


class TestFomCommand:
    def test_table(self, tmp_path):
        cfg = _base_config(
            tmp_path,
            fom_curve={"s": [0.0, 50.0, 100.0], "b": [1000.0], "f": [0.2]},
        )
        assert main(["fom", "--config", str(cfg)]) == 0
        rows = _read_csv(tmp_path / "out" / "fom.csv")
        assert len(rows) == 3
        assert float(rows[0]["fom"]) == 0.0  # s = 0
        for r in rows:
            expected = fom(float(r["s"]), float(r["b"]), FomParams(f=float(r["f"])))
            assert float(r["fom"]) == pytest.approx(expected, rel=1e-15)
        assert {r["f"] for r in rows} == {"0.2"}

    def test_missing_section(self, tmp_path):
        cfg = _base_config(tmp_path)
        assert main(["fom", "--config", str(cfg)]) == 2

    def test_f_defaults_to_the_fom_section(self, tmp_path):
        cfg = _base_config(tmp_path, fom={"f": 0.5}, fom_curve={"s": [50.0], "b": [1000.0]})
        assert main(["fom", "--config", str(cfg)]) == 0
        (row,) = _read_csv(tmp_path / "out" / "fom.csv")
        assert row["f"] == "0.5"
        assert float(row["fom"]) == fom(50.0, 1000.0, FomParams(f=0.5))

    def test_out_of_float_range_f(self, tmp_path):
        # (f*B)**2 underflows, B*B/(f*B)**2 overflows, (f*B)**2 overflows
        cfg = _base_config(tmp_path,
                           fom_curve={"s": [10.0], "b": [100.0], "f": [1e-200, 1e-160, 1e200]})
        assert main(["fom", "--config", str(cfg)]) == 0
        values = [float(r["fom"]) for r in _read_csv(tmp_path / "out" / "fom.csv")]
        assert values[:2] == [qamlz.asimov_significance(10.0, 100.0)] * 2
        limit = math.sqrt(2 * 100 * (10 - 100 * math.log1p(10 / 100))) / (1e200 * 100)
        assert values[2] == pytest.approx(limit, rel=1e-12)

    def test_negative_f_is_config_error(self, tmp_path, capsys):
        cfg = _base_config(tmp_path, fom_curve={"s": [50.0], "b": [1000.0], "f": [-0.2]})
        assert main(["fom", "--config", str(cfg)]) == 2
        assert "f must be finite and >= 0, got -0.2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fom.csv").exists()


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test-only dependency: importing qamlz and a whole `eval`,
    # overtraining KS test included, run without loading it
    cfg = _base_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    src = str(Path(qamlz.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qamlz, qamlz.cli; "
            "print('scipy' in sys.modules); "
            "print(qamlz.cli.main(['eval', '--config', sys.argv[2]]), 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, str(cfg)], capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False")
    assert json.loads((tmp_path / "out" / "overtraining.json").read_text())


def test_good_config_leaves_difflib_unloaded(tmp_path):
    # difflib serves only the message of an unknown key
    cfg = _base_config(tmp_path, fom_curve={"s": [50.0], "b": [1000.0]})
    src = str(Path(qamlz.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qamlz.cli; "
            "print('difflib' in sys.modules); "
            "print(qamlz.cli.main(['fom', '--config', sys.argv[2]]), 'difflib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, str(cfg)], capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False")


def _keys(kind) -> set:
    """The keys the reader accepts for a table or a dataclass."""
    if isinstance(kind, dict):
        return set(kind)
    return {f.metadata.get("key", f.name) for f in dataclasses.fields(kind)}


def test_readme_config_block_matches_the_reader():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    # the reader accepts every key of the block ...
    cfg = read_config(doc)
    assert (cfg.zoom.cutoff_pct, cfg.fom.grid_points, len(cfg.grid)) == (85.0, 201, 16)
    # ... and the block shows every key the reader accepts
    zoom = doc["zoom"]
    for keys, shown in (
        (_keys(cli._CONFIG), doc), (_keys(cli._DATA), doc["data"]),
        (_keys(cli._PRESET), doc["data"]["generator"]), (_keys(FomParams), doc["fom"]),
        (_keys(cli._SCAN), doc["scan"]), (_keys(cli._FOM_CURVE), doc["fom_curve"]),
        (_keys(ZoomConfig) - {"seed"}, zoom), (_keys(AnnealSchedule), zoom["schedule"]),
        (_keys(ChainConfig), zoom["chain"]),
    ):
        assert keys == set(shown)


class TestExitCodes:
    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1, 400, 990, 200_000])
    def test_nesting_verdict_does_not_depend_on_the_stack(self, tmp_path, capsys, depth):
        # whether a deep model file was refused, and with which message, used
        # to depend on how deep the caller's stack already was
        model_path = tmp_path / "model.json"
        model_path.write_text("[" * depth + "]" * depth)
        cfg = _base_config(tmp_path, model=str(model_path))

        def run(frames: int):
            if frames:
                return run(frames - 1)
            return main(["eval", "--config", str(cfg)]), capsys.readouterr().err

        shallow = run(0)
        assert run(500) == shallow
        assert shallow[0] == 3
        too_deep = f"is not valid JSON: nested deeper than {MAX_DEPTH} levels"
        assert (too_deep in shallow[1]) == (depth > MAX_DEPTH)

    def test_stack_overflow_while_parsing_is_the_nesting_error(self):
        # a stack so deep already that a document within the bound overflows it
        raw = b"[" * MAX_DEPTH + b"]" * MAX_DEPTH
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 20)
        try:
            read_json(raw, ConfigError, "doc")
        except ConfigError as exc:
            error = exc
        finally:
            sys.setrecursionlimit(limit)
        assert str(error) == f"doc is not valid JSON: nested deeper than {MAX_DEPTH} levels"

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("form", BYTE_FORMS)
    def test_config_that_is_not_a_document_is_config_error(self, tmp_path, capsys, form):
        # each used to end in a traceback (exit 1): a UnicodeDecodeError,
        # Python's 4300-digit ValueError, or a RecursionError while parsing
        # or, at 990 deep, while printing the bad value
        cfg = _base_config(tmp_path, fom_curve={"s": [10.0], "b": [100.0]})
        cfg.write_bytes(mutated(json.loads(cfg.read_text()), ("n_bins",), form))
        assert main(["fom", "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2

    def test_missing_data_file(self, tmp_path):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["data"] = {"csv": str(tmp_path / "nope.csv")}
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 3

    def test_infinite_weight_in_data_file(self, tmp_path, capsys):
        cfg = _base_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        events = tmp_path / "out" / "events.csv"
        lines = events.read_text().splitlines()
        tag, _, rest = lines[5].split(",", 2)
        lines[5] = f"{tag},inf,{rest}"
        events.write_text("\n".join(lines) + "\n")
        doc = json.loads(cfg.read_text())
        doc["data"] = {"csv": str(events)}
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 3
        assert "at row 5, column 'weight'" in capsys.readouterr().err

    def _preset_csv(self, tmp_path, **cells) -> Path:
        """400 default-preset events in a CSV, with every value of each named
        column replaced."""
        gen = _base_config(tmp_path, data={"generator": {"preset": "default"}, "n_events": 400})
        assert main(["gen", "--config", str(gen)]) == 0
        events = tmp_path / "out" / "events.csv"
        with events.open() as fh:
            rows = list(csv.reader(fh))
        for name, value in cells.items():
            j = rows[0].index(name)
            for row in rows[1:]:
                row[j] = value
        with events.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return events

    def test_non_finite_derived_value_is_data_error(self, tmp_path, capsys):
        events = self._preset_csv(tmp_path, met="1e200", mt="1e200")
        cfg = _base_config(tmp_path, data={"csv": str(events)}, variables="A")
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "derived variable 'met_mt_window' must be finite" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_zero_total_weight_is_data_error(self, tmp_path, capsys):
        # every distance divides by the weight sum; training used to crash
        # with an IndexError after every candidate's distance came out NaN
        events = self._preset_csv(tmp_path, weight="0.0")
        cfg = _base_config(tmp_path, data={"csv": str(events)}, variables="A",
                           zoom={"iterations": 2, "offset_range": 0, "solver": "exact"})
        assert main(["train", "--config", str(cfg)]) == 3
        assert "the train sample has zero total weight" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_weight_total_that_overflows_is_data_error(self, tmp_path, capsys, recwarn):
        # each weight is finite but their sum is not: training used to warn of
        # overflows and exit 2 with "fields must be a finite vector"
        events = self._preset_csv(tmp_path, weight="1e308")
        cfg = _base_config(tmp_path, data={"csv": str(events)}, variables="A",
                           zoom={"iterations": 2, "offset_range": 0, "solver": "exact"})
        assert main(["train", "--config", str(cfg)]) == 3
        assert "the weights' total overflows the float range" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("tag, name", [("1", "signal"), ("-1", "background")])
    def test_zero_yield_assess_class_at_eval_is_data_error(self, tmp_path, capsys, tag, name):
        # the figure of merit of a class without yield used to read 0 at S = B = 0
        events = self._preset_csv(tmp_path)
        cfg = _base_config(tmp_path, data={"csv": str(events)}, variables="A",
                           zoom={"iterations": 2, "offset_range": 0, "solver": "exact"})
        assert main(["train", "--config", str(cfg)]) == 0
        with events.open() as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if row[0] == tag:
                row[1] = "0.0"
        with events.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 3
        assert f"the {name} events have zero total weight" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval_summary.json").exists()

    def test_undecodable_data_file_is_data_error(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_bytes(b"tag,weight,process,x\n1,1.0,signal,0.5\n-1,1.0,wjets,\xff\n")
        cfg = _base_config(tmp_path, data={"csv": str(events)}, variables=["x"])
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{events}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_data_path_that_is_a_directory_is_data_error(self, tmp_path, capsys):
        cfg = _base_config(tmp_path, data={"csv": str(tmp_path)}, variables=["x"])
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"cannot read event file {tmp_path}: Is a directory" in err
        assert "Traceback" not in err

    def test_custom_list_may_name_a_preset(self, tmp_path):
        # the CSV lacks the preset's column; it used to be a data error
        events = self._preset_csv(tmp_path)
        cfg = _base_config(tmp_path, data={"csv": str(events)},
                           variables=["met", "ht", "met_ht_window"])
        assert main(["train", "--config", str(cfg)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["pipeline"]["variables"] == ["met", "ht", "met_ht_window"]
        assert model["pipeline"]["derived"] == ["met_ht_window"]
        assert main(["eval", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("key, value", [
        ("bounds", {"v0": [0.0]}),
        ("bounds", {"v0": [0.0, None, 5.0]}),
        ("processes", [1]),
        # numpy refused the ragged covariance with a ValueError (exit 1)
        ("processes", {"signal": {"mean": [1.5, 1.0], "cov": [[1.0], [0.0, 1.0]]}}),
    ], ids=["bound-of-one-entry", "bound-of-three-entries", "processes-not-an-object",
            "ragged-covariance"])
    def test_malformed_generator_spec(self, tmp_path, capsys, key, value):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["data"]["generator"][key] = value
        cfg.write_text(json.dumps(doc))
        assert main(["gen", "--config", str(cfg)]) == 2
        assert "config error: bad generator spec" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", [
        {"schema": ["v0"], "proceses": {}},
        {"preset": "other"},
        {},
    ], ids=["misspelled-processes", "unknown-preset", "empty"])
    def test_generator_neither_preset_nor_inline(self, tmp_path, capsys, generator):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["data"]["generator"] = generator
        cfg.write_text(json.dumps(doc))
        assert main(["gen", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert '{"preset": "default"} or an inline spec with a "processes" key' in err
        assert not (tmp_path / "out" / "events.csv").exists()

    def test_invalid_zoom_config(self, tmp_path):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["zoom"]["base"] = 2.0
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2

    def test_hung_external_solver_times_out(self, tmp_path, capsys):
        # the command is the interpreter itself, so the timeout kills the sleeper
        script = "import time; time.sleep(60)"
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["zoom"].update(solver="external", external_command=[sys.executable, "-c", script],
                           external_timeout=0.5)
        cfg.write_text(json.dumps(doc))
        began = time.monotonic()
        assert main(["train", "--config", str(cfg)]) == 3
        assert time.monotonic() - began < 30
        assert "timed out after 0.5 seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", [0, -1.0, "5", [5]])
    def test_bad_external_timeout(self, tmp_path, timeout):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["zoom"].update(solver="external", external_command=[sys.executable, "-c", "0"],
                           external_timeout=timeout)
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("reply", [
        "[]",
        '{"samples": [{"spins": [1] * d["n"], "energy": float("nan")}]}',
        # used to raise OverflowError (exit 1) when stored as a float
        '{"samples": [{"spins": [1] * d["n"], "energy": 10**400}]}',
    ])
    def test_malformed_external_reply(self, tmp_path, reply):
        script = f"import json, sys; d = json.load(sys.stdin); print(json.dumps({reply}))"
        cfg = _external_config(tmp_path, [sys.executable, "-c", script])
        assert main(["train", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("form", BYTE_FORMS)
    def test_external_reply_that_is_not_a_document_is_data_error(self, tmp_path, capsys, form):
        # each used to end in a traceback (exit 1); stdout that was not UTF-8
        # failed to decode inside subprocess.run
        cfg = _external_config(tmp_path, _reply_stub(("samples", 0, "energy"), form))
        assert main(["train", "--config", str(cfg)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_broken_chain_fraction_in_external_reply(self, tmp_path, capsys):
        # a well-formed sample whose reply reports a NaN chain breakage
        script = ("import json, sys; d = json.load(sys.stdin); "
                  "e = sum(d['h']) + sum(v for _, _, v in d['J']); "
                  "print(json.dumps({'samples': [{'spins': [1] * d['n'], 'energy': e}], "
                  "'broken_chain_fraction': float('nan')}))")
        cfg = _external_config(tmp_path, [sys.executable, "-c", script])
        assert main(["train", "--config", str(cfg)]) == 3
        assert "broken_chain_fraction must be a number in [0, 1], got nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "train_log.jsonl").exists()

    @pytest.mark.parametrize("command, path, value", [
        ("train", "", []),
        ("train", "zoom", 5),
        ("gen", "seed", "x"),
        ("train", "n_bins", "x"),
        ("eval", "fom.f", "x"),
        ("scan", "scan", {"offset_range": ["x"]}),
        ("train", "data.qa_fraction", "x"),
        ("fom", "fom_curve", {"s": ["x"], "b": [1000.0]}),
        ("train", "zoom.iterations", 2.5),
        ("train", "zoom.fixing", "false"),
        ("train", "zoom.schedule.n_reads", 4.5),
        ("train", "zoom.schedule.sweeps", 5.5),
        ("train", "zoom.schedule.n_g", [1.5]),
        ("train", "zoom.schedule.n_e", [1.5]),
    ])
    def test_wrongly_typed_config(self, tmp_path, capsys, command, path, value):
        cfg = _base_config(tmp_path)
        doc = json.loads(cfg.read_text())
        if path:
            *parents, key = path.split(".")
            node = doc
            for name in parents:
                node = node[name]
            node[key] = value
        else:
            doc = value
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path, value, message", [
        ("train", "zoom.cutof_pct", 50.0,
         "zoom has an unknown key 'cutof_pct' (did you mean 'cutoff_pct'?)"),
        ("train", "sede", 3, "config has an unknown key 'sede' (did you mean 'seed'?)"),
        ("train", "data.n_event", 600, "data has an unknown key 'n_event'"),
        ("train", "zoom.schedule.n_read", 5, "zoom.schedule has an unknown key 'n_read'"),
        ("train", "zoom.chain.lenght", 2, "zoom.chain has an unknown key 'lenght'"),
        ("train", "zoom.seed", 3, "zoom has an unknown key 'seed'"),
        ("eval", "fom.grid_point", 51, "fom has an unknown key 'grid_point'"),
        ("scan", "scan", {"delta": [0.1], "n_run": 2}, "scan has an unknown key 'n_run'"),
        ("fom", "fom_curve", {"s": [1.0], "b": [1.0], "g": [0.2]},
         "fom_curve has an unknown key 'g'"),
        ("gen", "data.generator.integer_variabels", ["v0"],
         "data.generator has an unknown key 'integer_variabels'"),
        ("gen", "data.generator.n_events", 600, "data.generator has an unknown key 'n_events'"),
        ("gen", "data.generator", {"preset": "default", "processes": {}},
         "data.generator has an unknown key 'processes'"),
        ("gen", "data.generator.s_tot", "7000",
         'data.generator.s_tot must be a finite number, got "7000"'),
        ("gen", "data.generator.b_tot", True, "data.generator.b_tot must be a finite number"),
        ("gen", "data.generator.processes.signal.mean", [1.5, "1"],
         "data.generator.processes.signal.mean[1] must be a finite number"),
        ("train", "zoom.schedule.d", [-1.0], "energy windows d must be >= 0 or null"),
        ("eval", "fom.grid_points", -1, "fom.grid_points must be >= 2, got -1"),
        ("eval", "fom.grid_points", 1, "fom.grid_points must be >= 2, got 1"),
        ("eval", "fom.min_counts", -5, "fom.min_counts must be >= 0, got -5"),
        ("train", "variables", [], "variables must name at least one variable"),
        # every section is read up front, whether or not the command uses it
        ("gen", "zoom.cutof_pct", 50.0,
         "zoom has an unknown key 'cutof_pct' (did you mean 'cutoff_pct'?)"),
        ("eval", "scan", {"delta": [0.1], "n_run": 2}, "scan has an unknown key 'n_run'"),
        ("eval", "zoom.schedule.n_read", 5, "zoom.schedule has an unknown key 'n_read'"),
        ("fom", "data.generator.integer_variabels", ["v0"],
         "data.generator has an unknown key 'integer_variabels'"),
        ("gen", "variables", "gamma", "unknown variable set 'gamma'"),
        # every event used to spend all its attempts and be clipped to the upper end
        ("gen", "data.generator.bounds", {"v0": [5, 1]},
         "bound on 'v0': lower end 5.0 exceeds upper end 1.0"),
    ])
    def test_bad_config_value_is_named(self, tmp_path, capsys, command, path, value, message):
        cfg = _base_config(tmp_path, scan={"delta": [0.1]}, fom_curve={"s": [1.0], "b": [1.0]})
        if command == "eval":
            assert main(["train", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps(_set(json.loads(cfg.read_text()), path, value)))
        assert main([command, "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not any(f.name not in ("model.json", "train_log.jsonl")
                       for f in (tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command, path, value, message", [
        # every point over budget used to exit 4 before n_runs was looked at
        ("scan", "scan", {"delta": [0.1], "n_runs": 1, "coupler_budget": 0},
         "scan.n_runs must be >= 2 for a standard deviation, got 1"),
        ("scan", "scan.n_runs", 1, "scan.n_runs must be >= 2"),
        ("scan", "scan.coupler_budget", -1, "scan.coupler_budget must be >= 0, got -1"),
        ("scan", "seed", 2**64 - 1, "seed + scan.n_runs - 1 must be below 2**64"),
        ("scan", "scan.cutoff_pct", [150.0], "cutoff_pct must be in [0, 100]"),
        ("scan", "scan.offset_range", [-1], "offset_range must be >= 0"),
        ("scan", "scan.delta", [0.0], "delta must be > 0 when offset_range > 0"),
        ("scan", "scan.fixing", [], "scan grid axes must be non-empty"),
        ("train", "zoom.offset_range", -1, "offset_range must be >= 0"),
        ("train", "zoom.delta", 0.0, "delta must be > 0 when offset_range > 0"),
        ("fom", "fom_curve.f", [], "fom_curve.f must be non-empty"),
        # a misspelt process used to route no event to assess, with exit 0
        ("train", "data.assess_processes", ["wjets", "ttbarr"],
         "data.assess_processes names an unknown process 'ttbarr' (did you mean 'ttbar'?)"),
        ("gen", "data.assess_processes", ["qcd"],
         "data.assess_processes names an unknown process 'qcd'; expected one of"),
        ("gen", "seed", 2**64, "seed must be a non-negative 64-bit integer"),
        # used to be refused by weak_fit only after the data were generated and split
        ("train", "n_bins", 1, "n_bins must be >= 2, got 1"),
    ])
    def test_bad_value_is_refused_before_any_data(self, tmp_path, monkeypatch, capsys,
                                                  command, path, value, message):
        def refuse(*args, **kwargs):
            raise AssertionError("events were read or generated for a bad config")

        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        monkeypatch.setattr(cli, "load_events", refuse)
        cfg = _base_config(tmp_path, scan={"delta": [0.1], "offset_range": [1], "n_runs": 2},
                           fom_curve={"s": [10.0], "b": [100.0]})
        cfg.write_text(json.dumps(_set(json.loads(cfg.read_text()), path, value)))
        assert main([command, "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, changes, message", [
        ("train", {"zoom.schedule.n_reads": 2**64}, "n_reads must be <= 65536"),
        ("train", {"zoom.schedule.sweeps": 2**64}, "sweeps must be <= 1048576"),
        ("train", {"zoom.schedule.n_g": [1e308]}, "gauge counts must be <= 1024"),
        ("train", {"zoom.schedule.n_e": [2**64]}, "excited-state caps must be <= 65536"),
        # offsets of +-inf used to train to exit 0, splitting nothing
        ("train", {"zoom.delta": 1e308}, "delta * offset_range must be finite"),
        ("train", {"zoom.offset_range": 2**64}, "offset_range must be <= 1024"),
        ("scan", {"scan.offset_range": [1e308]}, "offset_range must be <= 1024"),
        ("train", {"data.n_events": 2**64}, "data.n_events must be <= 16777216"),
        ("train", {"data.n_events": 10**12}, "data.n_events must be <= 16777216"),
        ("train", {"n_bins": 2**64}, "n_bins must be <= 65536"),
        ("train", {"fom.grid_points": 2**64}, "fom.grid_points must be <= 65536"),
        ("train", {"zoom.iterations": 2**64}, "iterations must be <= 1024"),
        # trained 324 iterations, then exited 2 once sigma = 0.1**324 was 0.0
        ("train", {"zoom.iterations": 330, "zoom.base": 0.1},
         "0.1 ** 329 underflows to 0"),
        # ran past 30 s
        ("scan", {"scan.n_runs": 2**31}, "scan.n_runs must be <= 1024, got 2147483648"),
        # built 2,000,000 grid points in 27.6 s, although `fom` uses none
        ("fom", {"scan": {"delta": [0.1 + k / 1000 for k in range(100)],
                          "offset_range": list(range(100)),
                          "cutoff_pct": [float(k) for k in range(100)],
                          "fixing": [False, True]},
                 "fom_curve": {"s": [10.0], "b": [100.0]}},
         "the scan grid must have at most 4096 points, got 2000000"),
        # with solver "chain", asked numpy for 48 TiB (MemoryError)
        ("train", {"zoom.chain.length": 2**40}, "chain length must be <= 64, got 1099511627776"),
        # 1000 x 1000 x 100 rows ran out of memory
        ("fom", {"fom_curve": {"s": [float(k) for k in range(300)],
                               "b": [float(k + 1) for k in range(300)]}},
         "fom_curve must give at most 65536 rows, got 90000"),
    ], ids=["n_reads", "sweeps", "n_g", "n_e", "delta", "offset_range", "scan-offset_range",
            "n_events", "n_events-1e12", "n_bins", "grid_points", "iterations",
            "iterations-base", "n_runs", "grid", "chain-length", "fom-rows"])
    def test_count_beyond_its_bound_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                    command, changes, message):
        # each used to end in a traceback (exit 1), an OverflowError or a run
        # that did not end; every one is refused at read time
        def refuse(*args, **kwargs):
            raise AssertionError("events were read or generated for a bad config")

        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        monkeypatch.setattr(cli, "load_events", refuse)
        cfg = _base_config(tmp_path, scan={"delta": [0.1], "offset_range": [1], "n_runs": 2})
        doc = _set(json.loads(cfg.read_text()), "zoom.offset_range", 2)
        for path, value in changes.items():
            _set(doc, path, value)
        cfg.write_text(json.dumps(doc))
        began = time.monotonic()
        assert main([command, "--config", str(cfg)]) == 2
        assert time.monotonic() - began < 10
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval", "scan"])
    def test_each_section_is_read_once(self, tmp_path, monkeypatch, command):
        cfg = _base_config(tmp_path, scan={"delta": [0.1], "offset_range": [1], "n_runs": 2},
                           fom_curve={"s": [10.0], "b": [100.0]})
        if command == "eval":
            assert main(["train", "--config", str(cfg)]) == 0
        paths, read = [], cli.from_json
        monkeypatch.setattr(cli, "from_json",
                            lambda kind, doc, where, **given:
                            paths.append(where) or read(kind, doc, where, **given))
        assert main([command, "--config", str(cfg)]) == 0
        sections = ["", "data", "data.generator", "variables", "zoom", "scan", "fom", "fom_curve"]
        assert sorted(paths) == sorted(sections + (["model"] if command == "eval" else []))

    @pytest.mark.parametrize("command, path, value, key", [
        ("eval", "fom.f", math.nan, "fom.f"),
        ("eval", "fom.f", math.inf, "fom.f"),
        ("train", "zoom.delta", -math.inf, "zoom.delta"),
        ("train", "zoom.schedule.t_cold", 10**400, "zoom.schedule.t_cold"),
        ("fom", "fom_curve", {"s": [math.nan], "b": [1000.0]}, "fom_curve.s[0]"),
    ], ids=["nan", "inf", "minus-inf", "int-beyond-float", "nan-in-list"])
    def test_non_finite_config_number(self, tmp_path, capsys, command, path, value, key):
        # JSON admits NaN and Infinity; a config number must still be finite
        cfg = _base_config(tmp_path)
        if command == "eval":
            assert main(["train", "--config", str(cfg)]) == 0
        doc = json.loads(cfg.read_text())
        *parents, last = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[last] = value
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 2
        assert f"config error: {key} must be a finite number" in capsys.readouterr().err
        out = tmp_path / "out"
        written = list(out.iterdir()) if out.exists() else []
        assert not any(name in f.read_bytes() for f in written for name in (b"NaN", b"Infinity"))
        assert not (out / "eval_summary.json").exists()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = _base_config(tmp_path)
        main(["gen", "--config", str(cfg), "--seed", "1"])
        first = (tmp_path / "out" / "events.csv").read_bytes()
        main(["gen", "--config", str(cfg), "--seed", "2"])
        assert (tmp_path / "out" / "events.csv").read_bytes() != first

    def test_negative_seed_rejected(self, tmp_path):
        cfg = _base_config(tmp_path)
        with pytest.raises(SystemExit) as exc:  # argparse rejects the flag value
            main(["gen", "--config", str(cfg), "--seed", "-1"])
        assert exc.value.code == 2
        doc = json.loads(cfg.read_text())
        doc["seed"] = -7
        cfg.write_text(json.dumps(doc))
        assert main(["gen", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# Property: whatever one mutation does to a document the program takes in, the
# command exits 0, 2, 3 or 4, with no exception escaping `main`
# ---------------------------------------------------------------------------

#: every key the config reader takes, at values that run tiny: 600 events of
#: two toy variables and exact 6-spin solves; `eval` reads the checked-in
#: model that `train` writes for the base config in normalized mode
_FULL_CONFIG = {
    "seed": 11, "out_dir": "out", "model": str(DATA / "model_normalized.json"),
    "data": {
        "generator": {
            "schema": ["v0", "v1"],
            "processes": {
                "signal": {"mean": [1.5, 1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                "wjets": {"mean": [-1.5, -1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            },
            "signal_fraction": 0.5, "background_fractions": {"wjets": 1.0},
            "s_tot": 120.0, "b_tot": 480.0,
            "bounds": {"v0": [-10.0, None]}, "integer_variables": [],
        },
        "n_events": 600, "schema": None, "preselection": False, "qa_fraction": 0.5,
        "assess_processes": [],
    },
    "variables": ["v0", "v1"], "weak_mode": "normalized", "pca": False, "n_bins": 8,
    "zoom": {
        "iterations": 2, "base": 0.5, "delta": 0.1, "offset_range": 1, "cutoff_pct": 0.0,
        "fixing": False, "solver": "exact", "p_flip": [0.0], "q_flip": [0.0], "lambda": 0.0,
        "schedule": {"n_reads": 4, "sweeps": 8, "t_hot": None, "t_cold": 0.01,
                     "n_g": [1], "n_e": [1], "d": [None]},
        "chain": {"length": 2, "strength": 1.0, "strength_schedule": None},
        "external_command": None, "external_timeout": None,
    },
    "fom": {"f": 0.2, "min_counts": 5, "grid_points": 101},
    "scan": {"delta": [0.1], "offset_range": [1], "cutoff_pct": [0.0], "fixing": [False],
             "n_runs": 2, "coupler_budget": 5600},
    "fom_curve": {"s": [10.0], "b": [100.0], "f": [0.2]},
}
#: (model file, the config over the base one it is read with)
_MODELS = {"model_normalized.json": {"weak_mode": "normalized"},
           "model_density_pca.json": {"pca": True}}
_MODEL_NODES = [(literal, path) for literal in _MODELS
                for path in paths(json.loads((DATA / literal).read_text()))]
_REPLY = {"samples": [{"spins": [1], "energy": 0.0}], "broken_chain_fraction": 0.0}
#: (form, value) of `json_mutations.mutated`
_MUTATIONS = st.one_of(st.tuples(st.just("value"), st.sampled_from(ODD_VALUES)),
                       st.tuples(st.sampled_from(BYTE_FORMS), st.none()))


def _exit_code(argv, cwd: Path) -> int:
    """`main(argv)` run in `cwd`, within 20 s. Its output is dropped, and so
    are the warnings an odd value provokes: the property is the exit code."""
    began = time.monotonic()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()),
          warnings.catch_warnings(record=True)):
        old = os.getcwd()
        os.chdir(cwd)
        try:
            rc = main(argv)
        finally:
            os.chdir(old)
    assert time.monotonic() - began < 20
    return rc


@pytest.mark.parametrize("command", ["gen", "train", "eval", "scan", "fom"])
def test_full_config_runs(tmp_path, command):
    # the unmutated documents of the properties below run to exit 0
    (tmp_path / "config.json").write_text(json.dumps(_FULL_CONFIG))
    assert _exit_code([command, "--config", "config.json"], tmp_path) == 0


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["gen", "train", "eval", "scan", "fom"]),
       path=st.sampled_from(list(paths(_FULL_CONFIG))), mutation=_MUTATIONS)
def test_any_config_mutation_exits_cleanly(tmp_path_factory, command, path, mutation):
    tmp = tmp_path_factory.mktemp("config")
    (tmp / "config.json").write_bytes(mutated(_FULL_CONFIG, path, *mutation))
    rc = _exit_code([command, "--config", "config.json"], tmp)
    assert rc == 2 if mutation[0] in REFUSED else rc in (0, 2, 3, 4)


@settings(max_examples=100, deadline=None)
@given(node=st.sampled_from(_MODEL_NODES), mutation=_MUTATIONS)
def test_any_model_mutation_exits_cleanly(tmp_path_factory, node, mutation):
    literal, path = node
    tmp = tmp_path_factory.mktemp("model")
    (tmp / "model.json").write_bytes(
        mutated(json.loads((DATA / literal).read_text()), path, *mutation))
    cfg = _base_config(tmp, model=str(tmp / "model.json"), **_MODELS[literal])
    rc = _exit_code(["eval", "--config", str(cfg)], tmp)
    assert rc == 3 if mutation[0] in REFUSED else rc in (0, 3)


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from(list(paths(_REPLY))), mutation=_MUTATIONS)
def test_any_external_reply_mutation_exits_cleanly(tmp_path_factory, path, mutation):
    tmp = tmp_path_factory.mktemp("reply")
    cfg = _external_config(tmp, _reply_stub(path, *mutation))
    rc = _exit_code(["train", "--config", str(cfg)], tmp)
    assert rc == 3 if mutation[0] in REFUSED else rc in (0, 3)
