import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import injflow
from injflow import metrics, training
from injflow.cli import PRESET_PARAMS, main
from injflow.expansive import (
    ZeroPad,
    random_injective_relu,
    random_linear_expansive,
)
from injflow.flows import (
    Mlp,
    identity_block,
    make_autoregressive_block,
    make_coupling_block,
)
from injflow.geometry import load_points_csv, save_points_csv
from injflow.network import InjectiveNetwork


def _run(argv):
    return main(argv)


def _read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


class TestProjectionBench:
    def test_small_bench_passes_oracle(self, tmp_path):
        out = tmp_path / "bench"
        code = _run(["run", "projection-bench", "--trials", "24", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        summary = _read_summary(out)
        assert summary["preset"] == "projection-bench"
        assert summary["metrics"]["oracle_gap_max"] <= 1e-6
        assert summary["metrics"]["preimage_gap_max"] <= 1e-6
        assert (out / "bench.csv").exists()

    def test_fixed_dimension_flag(self, tmp_path):
        out = tmp_path / "bench3"
        code = _run(["run", "projection-bench", "--trials", "8", "--n", "3",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "bench.csv", delimiter=",", skiprows=1, ndmin=2)
        assert (rows[:, 0] == 3).all()


class TestGapVisualization:
    def test_monotone_intervals_and_bound_checks(self, tmp_path):
        out = tmp_path / "gapviz"
        code = _run(["run", "gap-visualization", "--seed", "0", "--out", str(out)])
        assert code == 0
        summary = _read_summary(out)
        lowers = summary["metrics"]["lowers"]
        uppers = summary["metrics"]["uppers"]
        assert summary["metrics"]["monotone_decreasing"]
        assert all(l <= u + 1e-12 for l, u in zip(lowers, uppers))
        assert summary["metrics"]["final_lower"] <= 0.02
        assert summary["metrics"]["bound_checks_passed"]
        for name in ("f_samples", "g1_samples", "g2_samples", "g3_samples",
                     "gap_intervals"):
            assert (out / f"{name}.csv").exists()

    def test_cross_format_equality(self, tmp_path):
        # Every JSON table holds bitwise the float64 values of its CSV twin.
        _, ckpt = _toy_checkpoint(tmp_path)
        queries = np.random.default_rng(3).normal(size=(40, 3))
        queries[:4] = [[-0.0, 0.0, 5e-324], [1e16, -1e17, 0.1],
                       [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]
        qpath = tmp_path / "queries.csv"
        save_points_csv(qpath, queries)
        outs = {}
        for fmt in ("csv", "json"):
            outs[fmt] = tmp_path / fmt
            assert _run(["run", "gap-visualization", "--seed", "0",
                         "--out", str(outs[fmt]), "--format", fmt]) == 0
            assert _run(["project", "--checkpoint", str(ckpt), "--queries", str(qpath),
                         "--out", str(outs[fmt]), "--format", fmt]) == 0
        tables = sorted(p.stem for p in outs["csv"].glob("*.csv"))
        assert tables == sorted(p.stem for p in outs["json"].glob("*.json")
                                if p.name != "summary.json")
        assert {"gap_intervals", "projections", "f_samples"} <= set(tables)
        for name in tables:
            csv_path = outs["csv"] / f"{name}.csv"
            header = csv_path.read_text().splitlines()[0].split(",")
            csv_rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
            with open(outs["json"] / f"{name}.json") as fh:
                payload = json.load(fh)
            json_rows = np.asarray(payload["rows"], dtype=float)
            assert payload["columns"] == header
            assert json_rows.shape == csv_rows.shape
            assert json_rows.tobytes() == csv_rows.tobytes(), name


class TestDeterminism:
    def test_projection_bench_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _run(["run", "projection-bench", "--trials", "12",
                         "--seed", "7", "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()
        sa, sb = _read_summary(a), _read_summary(b)
        sa.pop("wall_time")
        sb.pop("wall_time")
        assert sa == sb

    def test_obstruction_summary_is_strict_json(self, tmp_path):
        # At 1+1 steps the treatment never gets tight, so two metrics have no
        # value; they must be written as null, not as a bare NaN token.
        out = tmp_path / "o"
        assert _run(["run", "trefoil-obstruction", "--steps-manifold", "1",
                     "--steps-density", "1", "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")
        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        metrics_ = summary["metrics"]
        assert metrics_["treatment_min_lipschitz_when_tight"] is None
        assert metrics_["lipschitz_ratio"] is None
        assert metrics_["warning"] == "non-finite metric present"

    def test_summary_has_required_fields(self, tmp_path):
        out = tmp_path / "s"
        assert _run(["run", "projection-bench", "--trials", "4", "--seed", "3",
                     "--out", str(out)]) == 0
        summary = _read_summary(out)
        assert set(summary) >= {"preset", "seed", "wall_time", "metrics"}
        assert summary["seed"] == 3
        assert np.isfinite(summary["wall_time"])


def _toy_checkpoint(tmp_path):
    rng = np.random.default_rng(0)
    net = InjectiveNetwork([
        make_coupling_block(2, 2, rng=rng, final_scale=0.4, hidden=8),
        random_linear_expansive(2, 3, rng),
        make_coupling_block(3, 2, rng=rng, final_scale=0.4, hidden=8),
    ])
    path = tmp_path / "net.json"
    net.save_checkpoint(path)
    return net, path


class TestProjectSubcommand:
    def test_projects_queries(self, tmp_path):
        net, ckpt = _toy_checkpoint(tmp_path)
        queries = np.random.default_rng(1).normal(size=(10, 3))
        qpath = tmp_path / "queries.csv"
        save_points_csv(qpath, queries)
        out = tmp_path / "proj"
        code = _run(["project", "--checkpoint", str(ckpt),
                     "--queries", str(qpath), "--out", str(out)])
        assert code == 0
        with open(out / "projections.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == (["query0", "query1", "query2", "preimage0", "preimage1",
                           "rangepoint0", "rangepoint1", "rangepoint2",
                           "residual", "tie_flag"])
        rows = np.loadtxt(out / "projections.csv", delimiter=",", skiprows=1)
        assert rows.shape == (10, 10)
        # Residuals are consistent: ||query - rangepoint|| equals the column.
        res = np.linalg.norm(rows[:, :3] - rows[:, 5:8], axis=1)
        np.testing.assert_allclose(res, rows[:, 8], atol=1e-9)

    def test_dimension_mismatch_is_usage_error(self, tmp_path):
        _, ckpt = _toy_checkpoint(tmp_path)
        qpath = tmp_path / "bad.csv"
        save_points_csv(qpath, np.zeros((3, 2)))
        code = _run(["project", "--checkpoint", str(ckpt),
                     "--queries", str(qpath), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_finite_residual_is_numeric_error_with_row(self, tmp_path, capsys):
        _, ckpt = _toy_checkpoint(tmp_path)
        queries = np.random.default_rng(1).normal(size=(4, 3))
        queries[2, 1] = 1e300
        qpath = tmp_path / "huge.csv"
        save_points_csv(qpath, queries)
        code = _run(["project", "--checkpoint", str(ckpt),
                     "--queries", str(qpath), "--out", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "numeric"
        assert record["error"]["row"] == 2


def _mixed_network():
    """coupling -> ReLU -> autoregressive -> linear -> identity block: every
    flow-layer and parameter-holding stage kind, from latent 2 to ambient 5."""
    rng = np.random.default_rng(0)
    return InjectiveNetwork([make_coupling_block(2, 1, rng=rng, hidden=4),
                             random_injective_relu(2, 4, rng),
                             make_autoregressive_block(4, 1, rng=rng, hidden=4),
                             random_linear_expansive(4, 5, rng),
                             identity_block(5)])


def _mixed_network_calls(tmp, ckpt):
    """`injflow project` and `injflow gap --family affine` argvs on ckpt,
    with seeded inputs shaped for _mixed_network."""
    rng = np.random.default_rng(1)
    inputs = {"queries": rng.uniform(-1, 1, size=(12, 5)),
              "pairs": rng.uniform(-0.5, 0.5, size=(12, 6)),
              "latent": rng.uniform(-1, 1, size=(12, 2))}
    for name, points in inputs.items():
        save_points_csv(tmp / f"{name}.csv", points)
    return (["project", "--checkpoint", str(ckpt), "--queries", str(tmp / "queries.csv"),
             "--out", str(tmp / "project")],
            ["gap", "--checkpoint", str(ckpt), "--pairs", str(tmp / "pairs.csv"),
             "--latent", str(tmp / "latent.csv"), "--family", "affine",
             "--out", str(tmp / "gap")])


def _gap_argv(tmp_path):
    """`injflow gap` arguments (no --out) for target pairs that the toy
    checkpoint's network generates itself."""
    net, ckpt = _toy_checkpoint(tmp_path)
    latent = np.random.default_rng(2).uniform(-1, 1, size=(64, 2))
    params = latent[:16]
    fx = np.atleast_2d(net.forward(params))
    pairs = np.hstack([params, fx])
    ppath = tmp_path / "pairs.csv"
    header = ",".join([f"k{i}" for i in range(2)] + [f"f{i}" for i in range(3)])
    np.savetxt(ppath, pairs, delimiter=",", header=header, comments="",
               fmt="%.17g")
    lpath = tmp_path / "latent.csv"
    save_points_csv(lpath, latent)
    return ["gap", "--pairs", str(ppath), "--latent", str(lpath),
            "--checkpoint", str(ckpt)]


class TestGapSubcommand:
    def test_gap_json_fields(self, tmp_path):
        out = tmp_path / "gap"
        code = _run([*_gap_argv(tmp_path), "--out", str(out)])
        assert code == 0
        with open(out / "gap.json") as fh:
            payload = json.load(fh)
        assert {"lower", "upper", "bound_check"} <= set(payload)
        assert "w2_exact" in payload or "w2_sliced" in payload
        assert 0.0 <= payload["lower"] <= payload["upper"]
        # Target pairs generated by the network itself: gap near zero.
        assert payload["upper"] <= 1e-6
        assert payload["bound_check"]["passed"]

    def test_seed_reaches_gap_fit_and_bound_check(self, tmp_path, monkeypatch):
        seen = {}
        for name in ("estimate_embedding_gap", "wasserstein_bound_check"):
            def recording(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
                seen[_name] = kwargs.get("seed")
                return _fn(*args, **kwargs)
            monkeypatch.setattr(metrics, name, recording)
        argv = [*_gap_argv(tmp_path), "--seed", "7", "--out", str(tmp_path / "gap")]
        assert _run(argv) == 0
        assert seen == {"estimate_embedding_gap": 7, "wasserstein_bound_check": 7}

    @pytest.mark.parametrize("flags, parameter", [
        (["--tolerance", "nan"], "tolerance"),
        (["--tolerance", "inf"], "tolerance"),
        (["--tolerance", "-5"], "tolerance"),
        (["--seed", "-1", "--family", "small-flow"], "seed"),
    ], ids=["nan-tolerance", "inf-tolerance", "negative-tolerance", "negative-seed"])
    def test_bad_gap_parameter_is_named(self, tmp_path, capsys, flags, parameter):
        out = tmp_path / "gap"
        assert _run([*_gap_argv(tmp_path), *flags, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert record["error"]["parameter"] == parameter
        assert not out.exists()


def _write_bad_input(path, kind):
    """A missing, malformed, deeply nested, incomplete, non-numeric,
    headerless, header-only or empty input file at path."""
    if kind == "malformed":
        path.write_text('{"format": "injflow-checkpoint-v1", "stages": [\n')
    elif kind == "deeply-nested":
        path.write_text("[" * 200_000)
    elif kind == "incomplete":
        path.write_text('{"format": "injflow-checkpoint-v1", '
                        '"stages": [{"kind": "flow_block", "dim": 2}]}')
    elif kind == "non-numeric":
        path.write_text("x0,x1\n0.5,abc\n")
    elif kind == "no-header":
        path.write_text("0.5,0.25\n1.0,2.0\n")
    elif kind == "header-only":
        path.write_text("x0,x1\n")
    elif kind == "empty":
        path.write_text("")
    return path


class TestInputFailures:
    """Bad input files end in a JSON usage record naming the file, exit 2."""

    @staticmethod
    def _expect_usage_error(argv, bad_path, capsys):
        assert _run(argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert str(bad_path) in record["error"]["message"]
        return record

    @pytest.mark.parametrize("kind", ["missing", "malformed", "incomplete",
                                      "deeply-nested"])
    def test_bad_checkpoint(self, tmp_path, capsys, kind):
        qpath = tmp_path / "queries.csv"
        save_points_csv(qpath, np.zeros((2, 3)))
        ckpt = _write_bad_input(tmp_path / "net.json", kind)
        self._expect_usage_error(["project", "--checkpoint", str(ckpt),
                                  "--queries", str(qpath),
                                  "--out", str(tmp_path / "o")], ckpt, capsys)

    @staticmethod
    def _points_csv_argv(tmp_path, flag, kind):
        """(argv, bad path): a `project` or `gap` call whose `flag` file is
        a bad input of `kind` and whose other inputs are valid."""
        _, ckpt = _toy_checkpoint(tmp_path)
        files = {"--queries": np.zeros((2, 3)), "--pairs": np.zeros((4, 5)),
                 "--latent": np.zeros((4, 2))}
        paths = {}
        for name, points in files.items():
            paths[name] = tmp_path / f"{name[2:]}.csv"
            save_points_csv(paths[name], points)
        paths[flag].unlink()
        _write_bad_input(paths[flag], kind)
        if flag == "--queries":
            argv = ["project", "--queries", str(paths["--queries"])]
        else:
            argv = ["gap", "--pairs", str(paths["--pairs"]),
                    "--latent", str(paths["--latent"])]
        argv += ["--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]
        return argv, paths[flag]

    @pytest.mark.parametrize("flag", ["--queries", "--pairs", "--latent"])
    @pytest.mark.parametrize("kind", ["missing", "non-numeric", "no-header"])
    def test_bad_points_csv(self, tmp_path, capsys, flag, kind):
        self._expect_usage_error(*self._points_csv_argv(tmp_path, flag, kind), capsys)

    @pytest.mark.parametrize("flag", ["--queries", "--pairs", "--latent"])
    @pytest.mark.parametrize("kind", ["header-only", "empty"])
    def test_points_csv_without_rows(self, tmp_path, capsys, flag, kind):
        # One record on stderr and nothing else: no loader warning either.
        argv, bad_path = self._points_csv_argv(tmp_path, flag, kind)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = self._expect_usage_error(argv, bad_path, capsys)
        assert [str(w.message) for w in caught] == []
        assert "no data rows" in record["error"]["message"]

    @pytest.mark.parametrize("block", [
        {"b": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "d": [1.0, 1.0]},
        {"b": [[1.0, 0.0], [0.0, 1.0]], "d": [1.0]},
    ], ids=["non-square-b", "short-d"])
    def test_malformed_relu_network_checkpoint(self, tmp_path, capsys, block):
        rng = np.random.default_rng(0)
        net = InjectiveNetwork([identity_block(2),
                                random_injective_relu(2, 4, rng),
                                identity_block(4)])
        cfg = net.to_config()
        cfg["stages"][1].update(block)
        ckpt = tmp_path / "net.json"
        ckpt.write_text(json.dumps(cfg))
        ppath, lpath = tmp_path / "pairs.csv", tmp_path / "latent.csv"
        save_points_csv(ppath, rng.uniform(-1, 1, size=(8, 5)))
        save_points_csv(lpath, rng.uniform(-1, 1, size=(16, 2)))
        self._expect_usage_error(["gap", "--pairs", str(ppath), "--latent", str(lpath),
                                  "--checkpoint", str(ckpt),
                                  "--out", str(tmp_path / "o")], ckpt, capsys)

    @pytest.mark.parametrize("kind", ["dropped-column", "wide-s-net"])
    def test_malformed_subnet_checkpoint(self, tmp_path, capsys, kind):
        _, ckpt = _toy_checkpoint(tmp_path)
        cfg = json.loads(ckpt.read_text())
        layer = cfg["stages"][2]["layers"][0]  # dim 3, split 1: s_net maps 2 -> 1
        if kind == "dropped-column":
            layer["s_net"]["weights"][0] = [row[:-1] for row in layer["s_net"]["weights"][0]]
        else:  # a self-consistent s_net with two outputs
            layer["s_net"] = Mlp([2, 8, 2], rng=0).to_config()
        ckpt.write_text(json.dumps(cfg))
        qpath = tmp_path / "queries.csv"
        save_points_csv(qpath, np.zeros((2, 3)))
        record = self._expect_usage_error(["project", "--checkpoint", str(ckpt),
                                           "--queries", str(qpath),
                                           "--out", str(tmp_path / "o")], ckpt, capsys)
        assert record["error"]["message"].startswith("cannot load checkpoint")

    @pytest.mark.parametrize("slot, literal", [
        ("linear-weight", "Infinity"),
        ("linear-weight", "-Infinity"),
        ("linear-weight", "1e999"),
        ("linear-weight", "1" + "0" * 399),
        ("coupling-weight", "NaN"),
        ("autoregressive-first", "NaN"),
        ("relu-d", "NaN"),
        ("scale-clamp", "-1.0"),
        ("scale-clamp", "NaN"),
    ], ids=["inf", "minus-inf", "overflowing-float", "overflowing-int",
            "coupling-nan", "first-nan", "relu-d-nan", "negative-clamp", "nan-clamp"])
    def test_bad_checkpoint_number(self, tmp_path, capsys, slot, literal):
        # A number the network cannot use is refused as the checkpoint
        # loads: a non-finite one, one past the float range, or a
        # scale_clamp other than the one every flow layer uses.
        cfg = _mixed_network().to_config()
        stages = cfg["stages"]
        coupling, autoregressive = stages[0]["layers"][0], stages[2]["layers"][0]
        relu, linear = stages[1], stages[3]
        owner, key = {"linear-weight": (linear["weight"][0], 0),
                      "coupling-weight": (coupling["s_net"]["weights"][0][0], 0),
                      "autoregressive-first": (autoregressive["first"], 0),
                      "relu-d": (relu["d"], 0),
                      "scale-clamp": (coupling, "scale_clamp")}[slot]
        owner[key] = "@"
        ckpt = tmp_path / "net.json"
        ckpt.write_text(json.dumps(cfg).replace('"@"', literal))
        qpath = tmp_path / "queries.csv"
        save_points_csv(qpath, np.zeros((2, 5)))
        record = self._expect_usage_error(["project", "--checkpoint", str(ckpt),
                                           "--queries", str(qpath),
                                           "--out", str(tmp_path / "o")], ckpt, capsys)
        assert record["error"]["message"].startswith("cannot load checkpoint")

    @pytest.mark.parametrize("edit", [
        lambda st: st[0]["layers"][0].update(perm=[0.9, 1.2]),
        lambda st: st[0].update(dim=2.7),
        lambda st: st[0]["layers"][0]["s_net"]["sizes"].__setitem__(1, 4.5),
        lambda st: st[0]["layers"][0]["s_net"].update(weights=None),
        lambda st: st[2]["layers"][0].update(first=None),
        lambda st: st[3].update(m=6),
        lambda st: st[0]["layers"][0]["s_net"]["sizes"].__setitem__(0, True),
        lambda st: st[0]["layers"][0]["s_net"]["biases"][0].__setitem__(0, 0),
        lambda st: st[3].update(note="extra"),
        lambda st: st[0]["layers"].append(identity_block(2).to_config()),
        lambda st: st[0]["layers"].append(ZeroPad(2, 3).to_config()),
    ], ids=["float-perm", "fractional-dim", "fractional-size", "null-weights",
            "null-first", "contradicting-m", "true-size", "integer-bias",
            "extra-key", "flow-block-in-block", "zero-pad-in-block"])
    def test_checkpoint_that_loads_as_another_network(self, tmp_path, capsys, edit):
        # Each file once loaded as a network that writes a different file
        # (a cut or cast value, freshly drawn or zero weights, an ignored
        # key); the two layer kinds were refused, and still are.
        cfg = _mixed_network().to_config()
        edit(cfg["stages"])
        ckpt = tmp_path / "net.json"
        ckpt.write_text(json.dumps(cfg))
        for argv in _mixed_network_calls(tmp_path, ckpt):
            record = self._expect_usage_error(argv, ckpt, capsys)
            assert record["error"]["message"].startswith("cannot load checkpoint")


class TestErrors:
    def test_unknown_preset_exit_2(self, capsys):
        code = _run(["run", "nonsense", "--out", "/tmp/ignored"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"

    def test_deeply_nested_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000)
        code = _run(["run", "projection-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert str(cfg) in record["error"]["message"]

    def test_malformed_config_reports_line_and_column(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"trials": 5,\n  "n": }\n')
        code = _run(["run", "projection-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert record["error"]["line"] == 2
        assert record["error"]["column"] > 0

    @pytest.mark.parametrize("preset, flags, config, parameter", [
        ("trefoil-obstruction", [], {"steps_density": "abc"}, "steps_density"),
        ("projection-bench", ["--trials", "0"], None, "trials"),
        ("projection-bench", ["--trials", "2", "--n", "-1"], None, "n"),
        ("projection-bench", ["--trials", "2", "--n", "0"], None, "n"),
        ("projection-bench", ["--trials", "2", "--seed", "-1"], None, "seed"),
        ("trefoil-obstruction", ["--steps-manifold", "1", "--steps-density", "1"],
         {"batch_size": 2.5}, "batch_size"),
        ("trefoil-obstruction", ["--steps-manifold", "1", "--steps-density", "1",
                                 "--checkpoint"], None, "checkpoint"),
        ("projection-bench", ["--trials", "2", "--checkpoint"], None, "checkpoint"),
        ("gap-visualization", ["--checkpoint"], None, "checkpoint"),
        ("projection-bench", [], {"bogus": 1}, "bogus"),
        ("layerwise-toy", [], {"phase1_step": 3}, "phase1_step"),
        ("gap-visualization", ["--trials", "3"], None, "trials"),
        ("projection-bench", [], {"batch_size": 4}, "batch_size"),
    ], ids=["text-steps", "zero-trials", "negative-n", "zero-n", "negative-seed",
            "fractional-batch", "obstruction-checkpoint", "bench-checkpoint",
            "gapviz-checkpoint", "unknown-config-key", "config-typo", "foreign-flag",
            "foreign-config-key"])
    def test_bad_run_parameter_is_named(self, tmp_path, capsys, preset, flags,
                                        config, parameter):
        ckpt = tmp_path / "net.json"
        argv = ["run", preset, "--out", str(tmp_path / "o"), *flags]
        if argv[-1] == "--checkpoint":
            argv.append(str(ckpt))
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert _run(argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert record["error"]["parameter"] == parameter
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "projection-bench", "--seed", "abc"],
        ["run", "projection-bench", "--format", "xml"],
        ["project", "--queries", "q.csv"],
    ], ids=["text-seed", "unknown-format", "missing-checkpoint"])
    def test_argparse_failure_prints_one_record(self, capsys, argv):
        assert _run(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "usage"

    @pytest.mark.parametrize("command", ["run", "project", "gap"])
    def test_out_under_a_file_is_usage_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        if command == "run":
            argv = ["run", "projection-bench", "--trials", "2"]
        elif command == "project":
            _, ckpt = _toy_checkpoint(tmp_path)
            qpath = tmp_path / "queries.csv"
            save_points_csv(qpath, np.zeros((2, 3)))
            argv = ["project", "--checkpoint", str(ckpt), "--queries", str(qpath)]
        else:
            argv = _gap_argv(tmp_path)
        assert _run([*argv, "--out", str(blocker / "out")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert str(blocker) in record["error"]["message"]

    def test_unwritable_checkpoint_fails_before_training(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(training, "run_layerwise_toy",
                            lambda **kwargs: calls.append(kwargs))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert _run(["run", "layerwise-toy", "--out", str(tmp_path / "o"),
                     "--checkpoint", str(blocker / "net.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "usage"
        assert str(blocker) in record["error"]["message"]
        assert calls == []

    def test_numeric_error_in_forked_control_arm_exits_1(self, tmp_path, capsys,
                                                          monkeypatch):
        from injflow import training
        from injflow.geometry import ManifoldTarget

        # A control target that is NaN on training batches (the only calls
        # with `batch` points) makes a non-finite gradient there.  Patched
        # before the fork, so the control arm's worker process inherits it.
        batch = 7
        circle = training.planar_circle_target

        def nan_circle(**kwargs):
            good = circle(**kwargs).map_points
            return ManifoldTarget(
                "nan-circle", 1, 3,
                lambda t: np.full((batch, 3), np.nan) if len(t) == batch else good(t),
                domain=(0.0, 2.0 * np.pi))
        monkeypatch.setattr(training, "planar_circle_target", nan_circle)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": batch}))
        code = _run(["run", "trefoil-obstruction", "--steps-manifold", "1",
                     "--steps-density", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "numeric"
        assert "stage" in record["error"]

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 4, "n": 2}')
        out = tmp_path / "o"
        assert _run(["run", "projection-bench", "--config", str(cfg),
                     "--trials", "6", "--seed", "1", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "bench.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[0] == 6  # flag wins
        assert (rows[:, 0] == 2).all()  # config n honored


# Keys with an `injflow run` flag; the others can only come from the config.
_FLAG_KEYS = {"seed", "trials", "n", "phase1_steps", "phase2_steps", "steps_manifold",
              "steps_density", "checkpoint"}
# The keys that set how much work a preset does; every generated run sets
# them, to at most 3, so that no run falls back to a full-size default.
_BUDGET_KEYS = {"gap-visualization": {"count"}, "projection-bench": {"trials"},
                "layerwise-toy": {"phase1_steps", "phase2_steps"},
                "trefoil-obstruction": {"steps_manifold", "steps_density"}}
_MUTATIONS = ("none", "unknown-key", "foreign-key", "bad-value", "unwritable-out",
              "unwritable-checkpoint")


def _refuse_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_contract(data):
    """`injflow run` on generated flags and configs, valid or with one
    mutation, never raises: a valid run exits 0 with a strict-JSON
    summary, a mutated one exits 2 with exactly one usage record."""
    preset = data.draw(st.sampled_from(sorted(PRESET_PARAMS)), label="preset")
    table = PRESET_PARAMS[preset]
    mutation = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        blocker = tmp / "file"
        blocker.write_text("")
        out = tmp / "out"
        params = {key: data.draw(st.integers(least, 3), label=key)
                  for key, least in table.items()
                  if key in _BUDGET_KEYS[preset]
                  or (least is not str and data.draw(st.booleans()))}
        if "checkpoint" in table and data.draw(st.booleans()):
            params["checkpoint"] = str(tmp / "ckpt" / "net.json")
        bad_key = None
        if mutation == "unknown-key":
            params["bogus"] = 1
        elif mutation == "foreign-key":
            foreign = sorted(set().union(*PRESET_PARAMS.values()) - set(table))
            params[data.draw(st.sampled_from(foreign), label="foreign")] = 1
        elif mutation == "bad-value":
            bad_key = data.draw(st.sampled_from(sorted(params)), label="bad_key")
            params[bad_key] = data.draw(st.sampled_from(
                (5, True, "", None) if bad_key == "checkpoint"
                else ("abc", float("nan"), True, 2.0, -1, None, [1])), label="bad")
        elif mutation == "unwritable-out":
            out = blocker / "out"
        elif mutation == "unwritable-checkpoint":
            params["checkpoint"] = str(blocker / "net.json")
        argv, config = ["run", preset, "--out", str(out)], {}
        for key, value in params.items():
            if key in _FLAG_KEYS and key != bad_key and data.draw(st.booleans()):
                argv += ["--" + key.replace("_", "-"), str(value)]
            else:
                config[key] = value
        if config:
            (tmp / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp / "cfg.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        if mutation == "none":
            assert code == 0, err.getvalue()
            json.loads((out / "summary.json").read_text(),
                       parse_constant=_refuse_constant)
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["type"] == "usage"
            assert code == 2


# One broken input of an `injflow project` or `injflow gap` call.  The file
# mutations break a CSV or the checkpoint (`retired-kind` gives a stage the
# kind `injective_relu_network`, which no stage has); the stage kind that
# projection does not support breaks `project` only, since `gap` runs no
# inverse.
_CHECKPOINT_MUTATIONS = ("truncated-checkpoint", "retired-kind")
_CSV_MUTATIONS = ("nan-cell", "inf-cell", "header-only", "no-header", "wrong-width",
                  "ragged-row")
_STAGE_MUTATIONS = ("relu-m-rows",)


def _contract_network(rng, n, kind):
    """Flow blocks (coupling from dimension 2 on) around one expansive stage
    of the given kind: supported by projection unless a stage mutation."""
    if kind == "relu-m-rows":
        r1 = random_injective_relu(n, 2 * n + 1, rng)
    elif kind == "zero-pad":
        r1 = ZeroPad(n, n + 1)
    elif kind == "linear":
        r1 = random_linear_expansive(n, n + 1, rng)
    else:
        r1 = random_injective_relu(n, 2 * n, rng)

    def flow(dim):
        return (make_coupling_block(dim, 1, rng=rng, hidden=4, final_scale=0.4)
                if dim >= 2 else identity_block(dim))
    return InjectiveNetwork([flow(n), r1, flow(r1.out_dim)])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_input_file_contract(data):
    """`injflow project` and `injflow gap --family affine` on a seeded
    checkpoint and CSVs, valid or with one mutation, never raise: a valid
    call exits 0, a mutated one exits 2 with exactly one usage record that
    names the broken file or stage."""
    command = data.draw(st.sampled_from(("project", "gap")), label="command")
    roles = ("queries",) if command == "project" else ("pairs", "latent")
    mutation = data.draw(st.sampled_from(
        ("none",) + _CHECKPOINT_MUTATIONS + _CSV_MUTATIONS
        + (_STAGE_MUTATIONS if command == "project" else ())), label="mutation")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    n = int(rng.integers(1, 3))
    net = _contract_network(rng, n, mutation if mutation in _STAGE_MUTATIONS
                            else ("zero-pad", "linear", "relu")[rng.integers(0, 3)])
    m = net.ambient_dim
    widths = {"queries": m, "pairs": 1 + m, "latent": n}
    role = None  # the CSV the mutation breaks, if any
    if mutation in _CSV_MUTATIONS:
        role = data.draw(st.sampled_from(roles), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ckpt = tmp / "net.json"
        net.save_checkpoint(ckpt)
        if mutation == "truncated-checkpoint":
            text = ckpt.read_text()
            ckpt.write_text(text[:len(text) // 2])
        elif mutation == "retired-kind":
            cfg = json.loads(ckpt.read_text())
            cfg["stages"][1]["kind"] = "injective_relu_network"
            ckpt.write_text(json.dumps(cfg))
        paths = {}
        for name in roles:
            width = widths[name]
            if name == role and mutation == "wrong-width":
                width = data.draw(st.sampled_from(
                    [w for w in range(1, widths[name] + 2)
                     if w != widths[name] and (name != "pairs" or w <= m)]),
                    label="width")
            points = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 61)), width))
            if name == role and mutation in ("nan-cell", "inf-cell"):
                cell = tuple(rng.integers(0, points.shape))
                points[cell] = np.nan if mutation == "nan-cell" else -np.inf
            paths[name] = tmp / f"{name}.csv"
            save_points_csv(paths[name], points)
            if name == role and mutation == "header-only":
                save_points_csv(paths[name], np.zeros((0, width)))
            elif name == role and mutation == "no-header":
                text = paths[name].read_text()
                paths[name].write_text(text[text.index("\n") + 1:])
            elif name == role and mutation == "ragged-row":
                with open(paths[name], "a", encoding="utf-8") as fh:
                    fh.write(",".join(["0.5"] * (width + 1)) + "\n")
        out = tmp / "out"
        argv = [command, "--checkpoint", str(ckpt), "--out", str(out)]
        for name in roles:
            argv += ["--" + name, str(paths[name])]
        if command == "gap":
            argv += ["--family", "affine"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        if mutation == "none":
            assert code == 0, err.getvalue()
            assert (out / ("projections.csv" if command == "project"
                           else "gap.json")).exists()
            return
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        record = json.loads(lines[0])["error"]
        assert record["type"] == "usage"
        assert code == 2
        named = ("stage 1" if mutation in _STAGE_MUTATIONS
                 else str(ckpt) if role is None else str(paths[role]))
        assert named in record["message"]


# The values one leaf of a valid checkpoint is set to: every JSON type, a
# float that may well be valid, integers that may pass for a count or an
# index, one past the float range and a nested list.
_LEAF_POOL = (None, True, 2.5, -1, 0, "x", [], {}, 10 ** 400, [[0.5, [1.5]]])

# Factors a whole subnet weight matrix or bias vector is scaled by: finite,
# so the file loads, but every product through it overflows.
_SCALE_POOL = (1e300, -1e300)


def _leaf_groups(node, path=()):
    """{path with list indices dropped: [paths of its scalar leaves]}, so a
    draw reaches a dim or a kind as often as one weight row's entries."""
    if isinstance(node, (dict, list)):
        groups = {}
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            for group, leaves in _leaf_groups(value, path + (key,)).items():
                groups.setdefault(group, []).extend(leaves)
        return groups
    return {tuple(k for k in path if isinstance(k, str)): [path]}


def _subnet_arrays(cfg):
    """Paths of every Mlp weight matrix and bias vector in cfg: the
    coupling's s_net and t_net and the autoregressive conditioners."""
    return sorted({leaf[:leaf.index(group[-1]) + 2]
                   for group, leaves in _leaf_groups(cfg).items()
                   if group[-1] in ("weights", "biases") for leaf in leaves}, key=repr)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_checkpoint_leaf_contract(data):
    """`injflow project` and `injflow gap --family affine` on a valid
    checkpoint with one leaf set to a value from _LEAF_POOL, or one subnet
    array scaled by a factor from _SCALE_POOL, never raise and print no
    numpy warning.  A leaf draw exits 0 or 2, a scaled draw 0, 1 or 2; a
    call that does not exit 0 leaves exactly one JSON record on stderr, and
    one that exits 0 loaded a network whose to_config() is the mutated
    file."""
    cfg = _mixed_network().to_config()
    factor = None
    if data.draw(st.booleans(), label="scale"):
        path = data.draw(st.sampled_from(_subnet_arrays(cfg)), label="array")
        factor = data.draw(st.sampled_from(_SCALE_POOL), label="factor")
    else:
        groups = _leaf_groups(cfg)
        group = data.draw(st.sampled_from(sorted(groups, key=repr)), label="group")
        path = data.draw(st.sampled_from(groups[group]), label="leaf")
        value = data.draw(st.sampled_from(_LEAF_POOL), label="value")
    owner = cfg
    for key in path[:-1]:
        owner = owner[key]
    if factor is not None:
        # Biases and the last layers start at zero; a zero entry becomes
        # the factor itself, so every draw changes the network.
        array = np.array(owner[path[-1]])
        value = (np.where(array == 0.0, 1.0, array) * factor).tolist()
    owner[path[-1]] = value
    exits = (0, 2) if factor is None else (0, 1, 2)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ckpt = tmp / "net.json"
        ckpt.write_text(json.dumps(cfg))
        for argv in _mixed_network_calls(tmp, ckpt):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            assert not caught, [str(w.message) for w in caught]
            assert code in exits, err.getvalue()
            if code == 0:
                loaded = InjectiveNetwork.load_checkpoint(ckpt).to_config()
                assert json.dumps(loaded, sort_keys=True) == json.dumps(cfg, sort_keys=True)
            else:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, lines
                json.loads(lines[0])


# Run in a fresh interpreter: the test process has long since loaded
# scipy.optimize through the exact-W2 and oracle tests.
_IMPORT_CONTRACT_SCRIPT = """
import json, sys
from injflow.cli import main
train, project, gap_equal, gap = json.loads(sys.argv[1])
for argv in train + [project, gap_equal]:
    assert main(argv) == 0, argv
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"training, project or equal-size gap loaded {loaded}"
assert main(gap) == 0
assert "scipy.optimize" in sys.modules, "gap ran no transport LP"
"""


def test_training_and_project_never_import_scipy_optimize(tmp_path):
    """Only the transport LP of the exact W2 and the brute-force ReLU oracle
    use scipy, through scipy.optimize, so `injflow run` on the training
    presets, `injflow project` and `injflow gap` with as many latent rows
    as pairs (every W2 an assignment) load no scipy module at all, and
    `injflow gap` with unequal counts loads scipy.optimize at first use."""
    _, ckpt = _toy_checkpoint(tmp_path)
    qpath = tmp_path / "queries.csv"
    save_points_csv(qpath, np.random.default_rng(3).normal(size=(20, 3)))
    train = [["run", "layerwise-toy", "--phase1-steps", "3", "--phase2-steps", "2",
              "--out", str(tmp_path / "toy")],
             ["run", "trefoil-obstruction", "--steps-manifold", "3",
              "--steps-density", "2", "--out", str(tmp_path / "obstruction")]]
    project = ["project", "--checkpoint", str(ckpt), "--queries", str(qpath),
               "--out", str(tmp_path / "proj")]
    gap = [*_gap_argv(tmp_path), "--family", "affine", "--out", str(tmp_path / "gap")]
    pairs, latent = (gap[gap.index(flag) + 1] for flag in ("--pairs", "--latent"))
    equal_latent = tmp_path / "latent-equal.csv"
    save_points_csv(equal_latent, load_points_csv(latent)[:len(load_points_csv(pairs))])
    gap_equal = [str(equal_latent) if arg == latent else arg for arg in gap]
    gap_equal[-1] = str(tmp_path / "gap-equal")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CONTRACT_SCRIPT,
         json.dumps([train, project, gap_equal, gap])],
        capture_output=True, text=True, env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr


# The names `injflow` exported before its import went lazy, and the modules
# benchmark/tracer.py fetches from it by name.
_PUBLIC_NAMES = (
    "BudgetExceededError", "InjectiveFlowError", "InvalidArgumentError",
    "InvalidCandidateError", "InvalidConfigError", "InvalidLayerError", "NumericError",
    "UnsupportedLayerError", "InjectiveRelu", "LinearExpansive", "ZeroPad",
    "AutoregressiveLayer", "CouplingLayer", "FlowBlock", "Mlp", "identity_block",
    "make_autoregressive_block", "make_coupling_block", "ManifoldTarget",
    "sample_circle", "trefoil", "EmbeddingGapEstimate", "directed_supinf",
    "embedding_gap_upper", "estimate_embedding_gap", "fit_candidate_alignment",
    "wasserstein2_exact", "wasserstein2_sliced", "wasserstein_bound_check",
    "InjectiveNetwork", "lipschitz_estimate", "ProjectionResult",
    "linear_pseudo_inverse", "project_to_range", "relu_pseudo_inverse", "PhaseConfig",
    "TrainingConfig", "TrainingTrace", "compute_gradients", "run_layerwise",
    "run_obstruction_experiment", "__version__")
_TRACED_MODULES = ("geometry", "expansive", "flows", "network", "training", "metrics",
                   "projection", "cli", "_util")

_IMPORT_SET_SCRIPT = """
import json, sys
def loaded():
    return {m.split(".", 1)[1] for m in sys.modules if m.startswith("injflow.")}
import injflow
assert loaded() == {"errors"}, loaded()
import injflow.cli
assert not loaded() & {"training", "metrics", "projection", "geometry"}, loaded()
project, gap, names, modules = json.loads(sys.argv[1])
assert injflow.cli.main(project) == 0
assert not loaded() & {"training", "metrics"}, loaded()
assert injflow.cli.main(gap) == 0
assert "training" not in loaded(), loaded()
for name in names:
    scope = {}
    exec(f"from injflow import {name}", scope)
    assert scope[name] is getattr(injflow, name), name
assert set(names) | set(modules) <= set(dir(injflow))
for module in modules:
    assert getattr(injflow, module) is sys.modules["injflow." + module], module
"""


def test_each_command_imports_only_its_modules(tmp_path):
    """`import injflow` loads only `errors`, `import injflow.cli` none of
    the modules that only some commands run, `injflow project` neither
    training nor metrics and `injflow gap` no training; every name the
    package exported still imports from it, and each module the benchmark
    tracer patches is an attribute of it.  In a fresh interpreter, where
    nothing is imported yet."""
    _, ckpt = _toy_checkpoint(tmp_path)
    qpath = tmp_path / "queries.csv"
    save_points_csv(qpath, np.random.default_rng(3).normal(size=(20, 3)))
    project = ["project", "--checkpoint", str(ckpt), "--queries", str(qpath),
               "--out", str(tmp_path / "proj")]
    gap = [*_gap_argv(tmp_path), "--family", "affine", "--out", str(tmp_path / "gap")]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET_SCRIPT,
         json.dumps([project, gap, _PUBLIC_NAMES, _TRACED_MODULES])],
        capture_output=True, text=True, env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr


def _package_env():
    """The environment with this package's source first on PYTHONPATH, for
    commands run in a fresh interpreter."""
    src = str(Path(injflow.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("family", ["affine", "small-flow"])
def test_overflowing_gap_is_one_numeric_record(tmp_path, family):
    """A linear weight scaled by 1e300 is finite, so the checkpoint loads,
    but the squared distances behind the gap bound overflow: `injflow gap`
    exits 1 with one numeric record and nothing else on stderr.  It printed
    three numpy RuntimeWarnings and exited 2 ("gap.upper must be finite")."""
    cfg = _mixed_network().to_config()
    linear = cfg["stages"][3]
    linear["weight"] = (np.array(linear["weight"]) * 1e300).tolist()
    _assert_gap_is_one_numeric_record(tmp_path, cfg, family)


@pytest.mark.parametrize("latent_rows", [None, 9], ids=["equal-counts", "unequal-counts"])
@pytest.mark.parametrize("family", ["affine", "small-flow"])
def test_overflowing_subnet_gap_is_one_numeric_record(tmp_path, family, latent_rows):
    """The coupling's t_net with a last layer of 1e300s: the gap bound is
    finite, but the exact W2 of the bound check overflows, and so do the
    small-flow refinement's surrogate and gradient.  With as many latent
    rows as pairs each printed numpy RuntimeWarnings before the numeric
    record; with 9 latent rows against 12 pairs the transport LP raised
    scipy's ValueError, a traceback."""
    cfg = _mixed_network().to_config()
    t_net = cfg["stages"][0]["layers"][0]["t_net"]
    t_net["weights"][-1] = np.full_like(t_net["weights"][-1], 1e300).tolist()
    _assert_gap_is_one_numeric_record(tmp_path, cfg, family, latent_rows)


def _assert_gap_is_one_numeric_record(tmp_path, cfg, family, latent_rows=None):
    """`injflow gap` on cfg's network, with latent_rows latent samples if
    given, exits 1 with one numeric record and nothing else on stderr, in a
    fresh interpreter, so stderr is all that the command wrote."""
    ckpt = tmp_path / "net.json"
    ckpt.write_text(json.dumps(cfg))
    _, gap = _mixed_network_calls(tmp_path, ckpt)
    if latent_rows is not None:
        save_points_csv(tmp_path / "latent.csv",
                        np.random.default_rng(5).uniform(-1, 1, size=(latent_rows, 2)))
    gap[gap.index("--family") + 1] = family
    proc = subprocess.run([sys.executable, "-m", "injflow.cli", *gap],
                          capture_output=True, text=True, env=_package_env(),
                          timeout=120)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"]["type"] == "numeric"


# VmHWM, not ru_maxrss: Linux carries the high-water mark of the process
# that started this one (here the test runner) into ru_maxrss across exec.
_PEAK_RSS_SCRIPT = """
import sys
from injflow.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def test_large_gap_peak_rss(tmp_path):
    """`injflow gap --family affine` on 4,000 pairs and 4,000 latent rows,
    with one BLAS thread, peaks at ~55 MB resident (2-core Linux host,
    numpy 2.4): the nearest-row matches go in row blocks, and the sliced W2s
    build no gradient.  With a gradient per sliced W2 it peaked at ~67 MB.
    Run in a fresh interpreter, so the figure is that command's alone."""
    if not Path("/proc/self/status").exists():
        pytest.skip("reads the peak resident size from /proc")
    net, ckpt = _toy_checkpoint(tmp_path)
    rng = np.random.default_rng(4)
    params = rng.uniform(-1, 1, size=(4000, 2))
    save_points_csv(tmp_path / "pairs.csv", np.hstack([params, net.forward(params)]))
    save_points_csv(tmp_path / "latent.csv", rng.uniform(-1, 1, size=(4000, 2)))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, "gap",
         "--pairs", str(tmp_path / "pairs.csv"), "--latent", str(tmp_path / "latent.csv"),
         "--checkpoint", str(ckpt), "--family", "affine", "--out", str(tmp_path / "gap")],
        capture_output=True, text=True, timeout=120,
        env={**_package_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024  # VmHWM is in kB
    assert peak_mb < 60.0, peak_mb


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "injflow.cli", "run",
                           "projection-bench", "--trials", "2", "--seed", "0",
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_missing_out_defaults_to_cwd_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(["run", "projection-bench", "--trials", "2", "--seed", "0"]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_layerwise_checkpoint_flag(tmp_path):
    out = tmp_path / "toy"
    ckpt = tmp_path / "toy-net.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"phase1_steps": 6, "phase2_steps": 4}')
    code = _run(["run", "layerwise-toy", "--seed", "0", "--out", str(out),
                 "--config", str(cfg), "--checkpoint", str(ckpt)])
    assert code == 0
    net = InjectiveNetwork.load_checkpoint(ckpt)
    assert net.latent_dim == 1 and net.ambient_dim == 3
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert trace.shape[1] == 5


def test_checkpoint_directory_refused_before_training(tmp_path, capsys, monkeypatch):
    """An existing directory as the checkpoint path exits 2 naming the
    parameter, before any training step."""
    def refuse(**kwargs):
        raise AssertionError("trained before the checkpoint path was checked")

    monkeypatch.setattr(training, "run_layerwise_toy", refuse)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    assert _run(["run", "layerwise-toy", "--out", str(tmp_path / "o"),
                 "--checkpoint", str(ckpt)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "usage"
    assert record["error"]["parameter"] == "checkpoint"
