import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from tracemap.cli import _vertex_interpolant, main
from tracemap.geometry import triangulate_square
from tracemap.quadrature import mesh_quadrature_nodes


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def laplace_run(tmp_path_factory):
    """gen + ls-train once; several tests share the artifacts."""
    root = tmp_path_factory.mktemp("laplace")
    data = root / "data"
    model = root / "model.json"
    assert run(
        ["gen", "--equation", "laplace", "--domain", "square", "--n", 80,
         "--samples", 150, "--seed", 42, "--out", data]
    ) == 0
    assert run(["train", "--data", data, "--method", "ls", "--out", model]) == 0
    return root, data, model


@pytest.fixture(scope="module")
def sphere_model(tmp_path_factory):
    """A k = 2 LS model on 100 sphere points, for the 3-D eval suite."""
    root = tmp_path_factory.mktemp("sphere")
    assert run(["gen", "--equation", "helmholtz3d", "--domain", "sphere", "--k", 2, "--n", 100,
                "--samples", 150, "--seed", 3, "--out", root / "data"]) == 0
    assert run(["train", "--data", root / "data", "--method", "ls", "--out", root / "model.json"]) == 0
    return root / "model.json"


class TestGen:
    def test_outputs_and_determinism(self, laplace_run, tmp_path, capsys):
        _, data, _ = laplace_run
        assert (data / "dataset.csv").exists()
        sidecar = json.loads((data / "dataset.json").read_text())
        assert sidecar["seed"] == 42
        assert sidecar["normalization"] == "laplace_mode"

        again = tmp_path / "again"
        run(["gen", "--equation", "laplace", "--domain", "square", "--n", 80,
             "--samples", 150, "--seed", 42, "--out", again])
        assert (again / "dataset.csv").read_bytes() == (data / "dataset.csv").read_bytes()

    def test_dataset_bytes_and_printed_hash_equal_the_library_text(self, tmp_path, capsys):
        from tracemap.synthesis import DatasetSpec, build_dataset, dataset_checksum, dataset_to_csv

        out = tmp_path / "data"
        assert run(["gen", "--equation", "helmholtz", "--k", 10, "--n", 40, "--samples", 20,
                    "--seed", 5, "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        text = dataset_to_csv(build_dataset(DatasetSpec.from_json((out / "dataset.json").read_text())))
        assert (out / "dataset.csv").read_bytes() == text.encode()
        assert f"sha256 {dataset_checksum(text)}" in printed

    def test_helmholtz_sidecar_notes_scale_only(self, tmp_path):
        out = tmp_path / "h"
        assert run(
            ["gen", "--equation", "helmholtz", "--k", 10, "--domain", "square",
             "--n", 40, "--samples", 20, "--seed", 1, "--out", out]
        ) == 0
        sidecar = json.loads((out / "dataset.json").read_text())
        assert sidecar["normalization"] == "scale_only"
        assert sidecar["kernel"]["k"] == 10.0

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--equation", "laplace", "--samples", 5])
        assert exc.value.code != 0

    def test_invalid_config_exits_nonzero(self, tmp_path):
        code = run(
            ["gen", "--equation", "laplace", "--domain", "square", "--n", 40,
             "--samples", 5, "--seed", 0, "--box-lo", 0.0, "--box-hi", 1.0,
             "--out", tmp_path / "bad"]
        )
        assert code != 0

    @pytest.mark.parametrize("box,message", [
        (["--box-lo=-inf"], "error: source_box ends must be finite"),
        (["--box-hi=nan"], "error: source_box ends must be finite"),
        (["--box-lo=-1e300", "--box-hi=1e300"],
         "error: source_box (-1e+300, 1e+300) is so wide that squared distances overflow"),
    ])
    @pytest.mark.parametrize("equation", ["laplace", "helmholtz"])
    def test_bad_source_box_refused(self, tmp_path, capsys, box, message, equation):
        out = tmp_path / "data"
        k = ["--k", 10] if equation == "helmholtz" else []
        argv = ["gen", "--equation", equation, *k, "--n", 40, "--samples", 5, *box, "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way to the refusal
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("equation", ["helmholtz", "helmholtz3d"])
    def test_wavenumber_whose_k_r_overflows_refused(self, tmp_path, capsys, equation):
        out = tmp_path / "data"
        domain = ["--domain", "sphere"] if equation == "helmholtz3d" else []
        argv = ["gen", "--equation", equation, *domain, "--k", 1e308, "--n", 40, "--samples", 2, "--seed", 1,
                "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way to the refusal
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the wavenumber k = 1e+308 is so large") and err.count("\n") == 1
        assert not out.exists()

    def test_too_few_points_refused_before_the_output_is_made(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["gen", "--equation", "laplace", "--n", 7, "--samples", 2, "--out", out]) == 1
        assert capsys.readouterr().err == "error: need at least 8 collocation points\n"
        assert not out.exists()

    def test_unknown_domain_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--equation", "laplace", "--domain", "hexagon", "--out", out])
        assert exc.value.code == 2
        assert "argument --domain: invalid choice: 'hexagon'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samples_refused(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert run(["gen", "--equation", "laplace", "--n", 40, "--samples", 0, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: n_samples must be at least 1")
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_kernels_per_sample_refused(self, tmp_path, capsys, count):
        out = tmp_path / "data"
        argv = ["gen", "--equation", "laplace", "--n", 40, "--samples", 2, "--kernels-per-sample", count,
                "--out", out]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: n_kernels_per_sample must be at least 1, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("equation,domain,message", [
        ("laplace", "sphere", "kernel 'laplace2d' is 2-D, domain 'sphere3d' is 3-D"),
        ("helmholtz3d", "square", "kernel 'helmholtz3d' is 3-D, domain 'unit_square' is 2-D"),
    ])
    def test_kernel_of_another_dimension_refused(self, tmp_path, capsys, equation, domain, message):
        out = tmp_path / "data"
        k = ["--k", 2] if equation == "helmholtz3d" else []
        argv = ["gen", "--equation", equation, "--domain", domain, *k, "--n", 40, "--samples", 2,
                "--seed", 1, "--out", out]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestNegativeSeed:
    """A negative --seed is refused by name, before any output is made."""

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["gen", "--equation", "laplace", "--n", 40, "--samples", 2, "--seed", -1, "--out", out]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_train_adam(self, laplace_run, tmp_path, capsys, monkeypatch):
        _, data, _ = laplace_run
        model = tmp_path / "models" / "model.json"
        monkeypatch.setattr("tracemap.cli._load_dataset", lambda *a: pytest.fail("the dataset was read"))
        assert run(["train", "--data", data, "--method", "adam", "--seed", -1, "--out", model]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not model.parent.exists()

    def test_eval(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        out = tmp_path / "eval"
        assert run(["eval", "--model", model, "--suite", "laplace", "--n", 80, "--seed", -1, "--out", out]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()


class TestFailedRunLeavesNoOutput:
    """A run refused for one of its inputs exits 1 by name and creates no output path."""

    @pytest.mark.parametrize("case", [
        "train_no_data", "solve_no_model", "solve_no_g", "solve_no_source", "solve_short_g", "solve_short_h",
        "solve_short_source", "quadbench_h", "quadbench_r0",
    ])
    def test_refused_before_the_outputs_are_made(self, laplace_run, tmp_path, capsys, monkeypatch, case):
        _, data, model = laplace_run
        monkeypatch.chdir(tmp_path)
        Path("g.csv").write_text("0.5\n" * 80)
        Path("g79.csv").write_text("0.5\n" * 79)
        Path("f.csv").write_text("1.0\n" * 8)  # triangulate_square(0.5) has 9 vertices
        solve = ["solve", "--model", model, "--grid", "square80", "--out", "s/f.csv"]
        argv, outputs, message = {
            "train_no_data": (["train", "--data", "nodata", "--method", "adam", "--out", "m/model.json",
                               "--log", "l2/log.csv"],
                              ["m", "l2"], "[Errno 2] No such file or directory: 'nodata/dataset.json'"),
            "solve_no_model": ([*solve, "--model", "nomodel.json", "--g", "g.csv"],
                               ["s"], "[Errno 2] No such file or directory: 'nomodel.json'"),
            "solve_no_g": ([*solve, "--g", "missing.csv"], ["s"], "[Errno 2] No such file or directory: 'missing.csv'"),
            "solve_no_source": ([*solve, "--g", "g.csv", "--source", "missing.csv", "--mesh-h", 0.5],
                                ["s"], "[Errno 2] No such file or directory: 'missing.csv'"),
            "solve_short_g": ([*solve, "--g", "g79.csv"], ["s"], "g79.csv has 79 values, expected 80: one per grid point"),
            "solve_short_h": ([*solve, "--g", "g.csv", "--h", "g79.csv", "--dirichlet-edges", "1"],
                              ["s"], "g79.csv has 79 values, expected 80: one per grid point"),
            "solve_short_source": ([*solve, "--g", "g.csv", "--source", "f.csv", "--mesh-h", 0.5],
                                   ["s"], "f.csv has 8 values, expected 9: one per mesh vertex"),
            "quadbench_h": (["quadbench", "--h", 0.1, "--h", 0, "--out", "q/q.csv"],
                            ["q"], "element size must satisfy 0 < h < 1"),
            "quadbench_r0": (["quadbench", "--h", 0.5, "--r0", 0, "--out", "q/q.csv"],
                             ["q"], "r0 must be finite and positive, got 0.0"),
        }[case]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p for p in outputs if Path(p).exists()] == []

    @pytest.mark.parametrize("suite,flag,value", [
        ("laplace", "--k", 1.0), ("poisson", "--k", 10), ("poisson", "--seed", 0), ("helmholtz3d", "--seed", 7),
        ("helmholtz3d", "--margin", 0.05), ("laplace", "--mesh-h", 0.02), ("helmholtz3d", "--mesh-h", 0.1),
    ])
    def test_eval_refuses_a_flag_its_suite_does_not_read(self, laplace_run, tmp_path, capsys, monkeypatch,
                                                         suite, flag, value):
        _, _, model = laplace_run
        monkeypatch.setattr("tracemap.cli._load_model_for", lambda *a: pytest.fail("the model was read"))
        out = tmp_path / "eval"
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--model", model, "--suite", suite, flag, value, "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"tracemap: error: suite {suite} does not read {flag}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--equation", "laplace", "--k", 5, "--n", 40, "--samples", 2, "--out", "o"],
         "gen --equation laplace takes no --k (the Helmholtz wavenumber)"),
        *[(["train", "--data", "d", "--method", "ls", flag, value, "--out", "o/model.json"],
           f"train --method ls takes no {flag} (an adam flag)")
          for flag, value in (("--epochs", 3), ("--lr", 9), ("--batch", 7), ("--log", "l/log.csv"))],
    ], ids=["gen-laplace-k", "ls-epochs", "ls-lr", "ls-batch", "ls-log"])
    def test_flag_the_run_does_not_read_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tracemap ") and err.endswith(f"tracemap: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["eval", "--model", "m.json", "--suite", "laplace-u1", "--out", "o"],
         "error: argument --suite: invalid choice: 'laplace-u1'"),
        (["quadbench", "--h", 0.1, "--kernel", "x", "--out", "o/q.csv"], "error: unrecognized arguments: --kernel x"),
    ], ids=["eval-suite-suffix", "quadbench-kernel"])
    def test_unknown_suite_or_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    @pytest.mark.parametrize(
        "flags,field", [(["--epochs", 0], "epochs"), (["--epochs", -3], "epochs"),
                        (["--batch", 0], "batch_size"), (["--batch", -5], "batch_size")],
    )
    def test_non_positive_counts_refused(self, laplace_run, tmp_path, capsys, flags, field):
        _, data, _ = laplace_run
        model = tmp_path / "model.json"
        assert run(["train", "--data", data, "--method", "adam", *flags, "--out", model]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be at least 1")
        assert not model.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_refused(self, laplace_run, tmp_path, capsys, lr):
        _, data, _ = laplace_run
        model = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any epoch runs
            assert run(["train", "--data", data, "--method", "adam", "--epochs", 3, f"--lr={lr}", "--out", model]) == 1
        assert capsys.readouterr().err.startswith(f"error: learning_rate must be finite, got {lr}")
        assert not model.exists()

    def test_ls_model_records_matrix_kernel_and_domain(self, laplace_run):
        _, _, model = laplace_run
        payload = json.loads(model.read_text())
        assert payload["layers"][0]["shape"] == [80, 80]
        assert payload["kernel"] == {"family": "laplace2d", "k": 0.0}
        assert payload["domain"] == {"shape": "unit_square"}

    def test_ls_prints_its_rank_and_takes_a_seed(self, laplace_run, tmp_path, capsys):
        _, data, model = laplace_run
        again = tmp_path / "model.json"
        assert run(["train", "--data", data, "--method", "ls", "--seed", 4, "--out", again]) == 0
        assert again.read_bytes() == model.read_bytes()
        residual = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"least-squares residual \S+, rank \d+ of 80 at cutoff 1e-08", residual)

    def test_adam_deterministic_model_bytes(self, laplace_run, tmp_path):
        _, data, _ = laplace_run
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["train", "--data", data, "--method", "adam", "--epochs", 30,
                "--lr", 1e-3, "--batch", 50, "--seed", 5]
        assert run(args + ["--out", m1]) == 0
        assert run(args + ["--out", m2]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_defective_dataset_rows_name_the_line(self, laplace_run, tmp_path, capsys):
        _, data, _ = laplace_run
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "dataset.json").write_bytes((data / "dataset.json").read_bytes())
        rows = (data / "dataset.csv").read_text().splitlines()
        model = tmp_path / "model.json"
        for edit in ("", rows[4].replace(",", ",nan,", 1).rsplit(",", 1)[0], rows[4].rsplit(",", 1)[0]):
            (bad / "dataset.csv").write_text("\n".join([*rows[:4], edit, *rows[5:]]) + "\n")
            for flags in (["--method", "ls"], ["--method", "adam", "--epochs", 2]):
                assert run(["train", "--data", bad, *flags, "--out", model]) == 1
                assert capsys.readouterr().err.startswith("error: line 5: ")
        assert not model.exists()

    def test_sidecar_without_a_field_is_an_error(self, laplace_run, tmp_path, capsys):
        _, data, _ = laplace_run
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "dataset.csv").write_bytes((data / "dataset.csv").read_bytes())
        model = tmp_path / "model.json"
        for edit, name in ((lambda p: p.pop("seed"), "seed"), (lambda p: p["kernel"].pop("k"), "kernel.k")):
            sidecar = json.loads((data / "dataset.json").read_text())
            edit(sidecar)
            (bad / "dataset.json").write_text(json.dumps(sidecar))
            assert run(["train", "--data", bad, "--method", "ls", "--out", model]) == 1
            assert capsys.readouterr().err == f"error: sidecar field {name!r} is missing\n"
        assert not model.exists()

    def test_truncated_dataset_is_an_error(self, laplace_run, tmp_path, capsys):
        _, data, _ = laplace_run
        cut = tmp_path / "cut"
        cut.mkdir()
        (cut / "dataset.json").write_bytes((data / "dataset.json").read_bytes())
        rows = (data / "dataset.csv").read_text().splitlines()
        (cut / "dataset.csv").write_text("\n".join(rows[:41]) + "\n")  # the first 20 of 150 samples
        model = tmp_path / "model.json"
        assert run(["train", "--data", cut, "--method", "ls", "--out", model]) == 1
        assert capsys.readouterr().err.startswith("error: 20 samples, expected n_samples = 150")
        assert not model.exists()

    def test_adam_divergence_is_an_error_message(self, laplace_run, tmp_path, capsys):
        _, data, _ = laplace_run
        model = tmp_path / "model.json"
        with np.errstate(all="ignore"):
            code = run(["train", "--data", data, "--method", "adam", "--lr", 1e200, "--epochs", 5,
                        "--batch", 50, "--out", model])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: non-finite loss")
        assert not model.exists()

    def test_mixed_training_layout_recorded(self, laplace_run, tmp_path):
        _, data, _ = laplace_run
        model = tmp_path / "mixed.json"
        assert run(
            ["train", "--data", data, "--method", "ls", "--dirichlet-edges", "1,3",
             "--out", model]
        ) == 0
        payload = json.loads(model.read_text())
        assert payload["input_layout"][0]["trace"] == "g"
        assert payload["input_layout"][1]["trace"] == "h"
        assert payload["output_layout"][0]["trace"] == "h"

    def test_mixed_training_on_helmholtz_data_refused(self, tmp_path, capsys):
        data, model = tmp_path / "data", tmp_path / "model.json"
        assert run(["gen", "--equation", "helmholtz", "--k", 3, "--n", 40, "--samples", 60, "--out", data]) == 0
        capsys.readouterr()
        assert run(["train", "--data", data, "--dirichlet-edges", 1, "--out", model]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: mixed operators are trained on laplace2d data only, "
            "not KernelSpec(family='helmholtz2d', k=3.0)\n"
        )
        assert not model.exists()

    def test_output_directories_created(self, laplace_run, tmp_path):
        _, data, _ = laplace_run
        model, log = tmp_path / "models" / "a" / "model.json", tmp_path / "logs" / "train_log.csv"
        assert run(["train", "--data", data, "--method", "adam", "--epochs", 2, "--batch", 50,
                    "--out", model, "--log", log]) == 0
        assert model.is_file() and log.is_file()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_unwritable_output_fails_before_the_fit(self, laplace_run, tmp_path, capsys, monkeypatch, flag):
        _, data, _ = laplace_run
        (tmp_path / "file").write_text("")
        paths = {"--out": tmp_path / "model.json", "--log": tmp_path / "log.csv", flag: tmp_path / "file" / "x"}
        monkeypatch.setattr("tracemap.cli.train_adam", lambda *a: pytest.fail("the fit ran"))
        assert run(["train", "--data", data, "--method", "adam", *(a for kv in paths.items() for a in kv)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_output_naming_a_directory_fails_before_the_fit(self, laplace_run, tmp_path, capsys, monkeypatch, flag):
        _, data, _ = laplace_run
        paths = {"--out": tmp_path / "model.json", "--log": tmp_path / "log.csv", flag: tmp_path / "dir"}
        paths[flag].mkdir()
        monkeypatch.setattr("tracemap.cli.train_adam", lambda *a: pytest.fail("the fit ran"))
        assert run(["train", "--data", data, "--method", "adam", *(a for kv in paths.items() for a in kv)]) == 1
        assert capsys.readouterr().err == f"error: {flag} {paths[flag]} is a directory\n"
        assert not (tmp_path / "model.json").exists() and not (tmp_path / "log.csv").exists()

    def test_ls_on_annulus_dataset_written_by_library(self, tmp_path):
        from tracemap.geometry import DomainSpec, PolarCurve
        from tracemap.kernels import KernelSpec
        from tracemap.synthesis import DatasetSpec, build_dataset, dataset_to_csv

        domain = DomainSpec.multi_loop(PolarCurve(1.0), PolarCurve(0.4))
        spec = DatasetSpec(KernelSpec("laplace2d"), domain, n_points=40, n_samples=60, seed=3)
        data = tmp_path / "annulus"
        data.mkdir()
        (data / "dataset.csv").write_text(dataset_to_csv(build_dataset(spec)))
        (data / "dataset.json").write_text(spec.to_json())
        model = tmp_path / "model.json"
        assert run(["train", "--data", data, "--method", "ls", "--out", model]) == 0
        assert json.loads(model.read_text())["layers"][0]["shape"] == [40, 40]


class TestEvalSolve:
    def test_eval_laplace_summary(self, laplace_run, tmp_path):
        _, _, model = laplace_run
        out = tmp_path / "eval"
        assert run(
            ["eval", "--model", model, "--suite", "laplace", "--n", 80,
             "--seed", 7, "--out", out]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"u1", "u2", "u3", "u4", "u5"}
        for fam in summary.values():
            assert fam["mean_total_error"] < 0.1
        case_files = list(out.glob("case_*.csv"))
        assert len(case_files) == 50

    def test_eval_helmholtz_k10_summary(self, tmp_path):
        data, model, out = tmp_path / "data", tmp_path / "model.json", tmp_path / "eval"
        assert run(["gen", "--equation", "helmholtz", "--k", 10, "--n", 80, "--samples", 150, "--seed", 3,
                    "--out", data]) == 0
        assert run(["train", "--data", data, "--method", "ls", "--out", model]) == 0
        assert run(["eval", "--model", model, "--suite", "helmholtz", "--k", 10, "--n", 80, "--seed", 7,
                    "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"sin_sin", "sin_sinh"}
        for fam in summary.values():
            assert fam["n_cases"] == 10 and np.isfinite(fam["mean_total_error"])
        assert len(list(out.glob("case_*.csv"))) == 20

    def test_eval_helmholtz3d_summary(self, sphere_model, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(["eval", "--model", sphere_model, "--suite", "helmholtz3d", "--domain", "sphere",
                    "--k", 2, "--n", 100, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"plane3d"}
        assert summary["plane3d"]["n_cases"] == 1 and np.isfinite(summary["plane3d"]["dudn_error"])
        config, artifact = capsys.readouterr().out.splitlines()[-2:]
        assert config.startswith("config: ")
        assert {"domain=sphere", "suite=helmholtz3d", "margin=0.05", "mesh_h=0.02"} <= set(config.split())
        assert artifact.startswith(f"artifact: {out / 'summary.json'} sha256:")

    def test_eval_helmholtz3d_on_a_2d_domain_refused(self, sphere_model, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(["eval", "--model", sphere_model, "--suite", "helmholtz3d", "--domain", "star5",
                    "--k", 2, "--n", 100, "--out", out]) == 1
        assert capsys.readouterr().err == "error: suite helmholtz3d needs a 3-D domain, got 'polar_curve'\n"
        assert not out.exists()

    def test_solve_roundtrip_field_csv(self, laplace_run, tmp_path):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        from tracemap.geometry import DomainSpec, make_boundary_grid

        grid = make_boundary_grid(DomainSpec.unit_square(), 80)
        g = grid.points[:, 0] + grid.points[:, 1]
        g_file.write_text("\n".join(repr(float(v)) for v in g))
        out = tmp_path / "field.csv"
        assert run(
            ["solve", "--model", model, "--grid", "square80", "--g", g_file,
             "--margin", 0.05, "--out", out]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,u_pred_re,u_pred_im,u_exact,abs_err,flag"
        # u = x + y at the first margin-grid point should be close
        first = lines[1].split(",")
        x, y, u = float(first[0]), float(first[1]), float(first[2])
        assert u == pytest.approx(x + y, abs=5e-2)

    @pytest.mark.parametrize("grid", ["squarex", "square-5", "hexagon400", ""])
    def test_bad_grid_name_refused(self, laplace_run, tmp_path, capsys, grid):
        _, _, model = laplace_run
        g_file, out = tmp_path / "g.csv", tmp_path / "fields" / "field.csv"
        g_file.write_text("1.0\n" * 80)
        assert run(["solve", "--model", model, "--grid", grid, "--g", g_file, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown grid {grid!r}: expected square|circle|star5|sphere and a point count, e.g. square400\n"
        )
        assert not out.parent.exists()

    def test_solve_creates_the_output_directory(self, laplace_run, tmp_path):
        _, _, model = laplace_run
        g_file, out = tmp_path / "g.csv", tmp_path / "fields" / "field.csv"
        g_file.write_text("1.0\n" * 80)
        assert run(["solve", "--model", model, "--grid", "square80", "--g", g_file, "--out", out]) == 0
        assert out.read_text().startswith("x,y,u_pred_re")

    def test_solve_to_an_unwritable_path_fails_before_the_solve(self, laplace_run, tmp_path, capsys, monkeypatch):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("1.0\n" * 80)
        (tmp_path / "file").write_text("")
        monkeypatch.setattr("tracemap.cli.BoundaryReconstructor", lambda *a: pytest.fail("the solve started"))
        assert run(["solve", "--model", model, "--grid", "square80", "--g", g_file,
                    "--out", tmp_path / "file" / "field.csv"]) == 1
        assert "error: " in capsys.readouterr().err

    def test_solve_to_a_directory_fails_before_the_solve(self, laplace_run, tmp_path, capsys, monkeypatch):
        _, _, model = laplace_run
        g_file, out = tmp_path / "g.csv", tmp_path / "fields"
        g_file.write_text("1.0\n" * 80)
        out.mkdir()
        monkeypatch.setattr("tracemap.cli.BoundaryReconstructor", lambda *a: pytest.fail("the solve started"))
        assert run(["solve", "--model", model, "--grid", "square80", "--g", g_file, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"

    def test_eval_to_a_file_fails_before_the_suite(self, laplace_run, tmp_path, capsys, monkeypatch):
        _, _, model = laplace_run
        out = tmp_path / "eval"
        out.write_text("")
        monkeypatch.setattr("tracemap.cli.evaluate_suite", lambda *a: pytest.fail("the suite ran"))
        assert run(["eval", "--model", model, "--suite", "laplace", "--n", 80, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"
        assert out.read_text() == ""

    def test_solve_poisson_with_vertex_source_file(self, laplace_run, tmp_path):
        _, _, model = laplace_run
        from tracemap.geometry import DomainSpec, make_boundary_grid, triangulate_square

        grid = make_boundary_grid(DomainSpec.unit_square(), 80)
        case_u = lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) / 4.0
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(repr(float(v)) for v in case_u(grid.points)))
        mesh = triangulate_square(0.1)
        src = tmp_path / "f.csv"
        src.write_text("\n".join("1.0" for _ in range(len(mesh.vertices))))
        out = tmp_path / "field.csv"
        assert run(
            ["solve", "--model", model, "--grid", "square80", "--g", g_file,
             "--source", src, "--mesh-h", 0.1, "--margin", 0.1, "--out", out]
        ) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        pred = np.array([float(r[2]) for r in rows])
        pts = np.array([[float(r[0]), float(r[1])] for r in rows])
        exact = case_u(pts)
        assert np.linalg.norm(pred - exact) / np.linalg.norm(exact) < 5e-2

    def test_poisson_g_of_the_wrong_length_refused(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.25"] * 79))
        src = tmp_path / "f.csv"
        src.write_text("\n".join("1.0" for _ in range(len(triangulate_square(0.5).vertices))))
        out = tmp_path / "field.csv"
        assert run(
            ["solve", "--model", model, "--grid", "square80", "--g", g_file,
             "--source", src, "--mesh-h", 0.5, "--out", out]
        ) == 1
        assert capsys.readouterr().err == f"error: {g_file} has 79 values, expected 80: one per grid point\n"
        assert not out.exists()

    def test_eval_poisson_has_no_dudn_error(self, laplace_run, tmp_path, capsys):
        # the solver's h_trace is the harmonic part's, not the full solution's du/dn
        _, _, model = laplace_run
        out = tmp_path / "eval"
        assert run(
            ["eval", "--model", model, "--suite", "poisson", "--n", 80,
             "--mesh-h", 0.5, "--out", out]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"poisson_quadratic", "poisson_quintic"}
        for fam in summary.values():
            assert fam["mean_dudn_error"] is None
            assert fam["mean_total_error"] < 0.5
        config = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("config: "))
        assert {"k=1.0", "seed=0", "margin=0.05"} <= set(config.split())  # the defaults of the flags not given

    def test_poisson_refused_off_the_unit_square(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        from tracemap.geometry import triangulate_square

        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.25"] * 80))
        src = tmp_path / "f.csv"
        src.write_text("\n".join("1.0" for _ in range(len(triangulate_square(0.5).vertices))))
        out = tmp_path / "field.csv"
        for argv, name in (
            (["solve", "--model", model, "--grid", "circle80", "--g", g_file,
              "--source", src, "--mesh-h", 0.5, "--out", out], "circle80"),
            (["eval", "--model", model, "--suite", "poisson", "--domain", "star5", "--n", 80,
              "--mesh-h", 0.5, "--out", tmp_path / "eval"], "star5"),
        ):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert "unit square" in err and repr(name) in err
        assert not out.exists()
        assert not (tmp_path / "eval").exists()

    def test_solve_mixed_from_files(self, laplace_run, tmp_path):
        _, data, _ = laplace_run
        model = tmp_path / "mixed.json"
        assert run(
            ["train", "--data", data, "--method", "ls", "--dirichlet-edges", "1",
             "--out", model]
        ) == 0
        from tracemap.geometry import DomainSpec, make_boundary_grid

        grid = make_boundary_grid(DomainSpec.unit_square(), 80)
        g = grid.points[:, 0] + grid.points[:, 1]   # u = x + y
        h = grid.normals.sum(axis=1)
        g_file, h_file = tmp_path / "g.csv", tmp_path / "h.csv"
        g_file.write_text("\n".join(repr(float(v)) for v in g))
        h_file.write_text("\n".join(repr(float(v)) for v in h))
        out = tmp_path / "field.csv"
        assert run(
            ["solve", "--model", model, "--grid", "square80", "--g", g_file,
             "--h", h_file, "--dirichlet-edges", "1", "--margin", 0.05, "--out", out]
        ) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        pred = np.array([float(r[2]) for r in rows])
        pts = np.array([[float(r[0]), float(r[1])] for r in rows])
        assert np.linalg.norm(pred - pts.sum(axis=1)) / np.linalg.norm(pts.sum(axis=1)) < 5e-2

    def test_non_finite_or_empty_column_files_rejected(self, laplace_run, tmp_path, capsys):
        _, data, model = laplace_run
        mixed = tmp_path / "mixed.json"
        assert run(
            ["train", "--data", data, "--method", "ls", "--dirichlet-edges", "1",
             "--out", mixed]
        ) == 0
        good = tmp_path / "good.csv"
        good.write_text("\n".join(["0.5"] * 80))
        out = tmp_path / "field.csv"
        for content in ["nan\n", "", "\n\n", "1.0\ninf\n"]:
            bad = tmp_path / "bad.csv"
            bad.write_text(content)
            for extra in (
                ["--model", model, "--g", bad],
                ["--model", mixed, "--g", good, "--h", bad, "--dirichlet-edges", "1"],
                ["--model", model, "--g", good, "--source", bad, "--mesh-h", 0.5],
            ):
                assert run(["solve", "--grid", "square80", *extra, "--out", out]) == 1
                assert str(bad) in capsys.readouterr().err
                assert not out.exists()

    def test_mixed_trace_of_the_wrong_length_refused(self, laplace_run, tmp_path, capsys):
        _, data, _ = laplace_run
        mixed = tmp_path / "mixed.json"
        assert run(
            ["train", "--data", data, "--method", "ls", "--dirichlet-edges", "1",
             "--out", mixed]
        ) == 0
        good = tmp_path / "good.csv"
        good.write_text("\n".join(["0.5"] * 80))
        out = tmp_path / "field.csv"
        for flag, n in (("--g", 150), ("--h", 150), ("--h", 40)):
            wrong = tmp_path / "wrong.csv"
            wrong.write_text("\n".join(["0.5"] * n))
            files = {"--g": good, "--h": good, flag: wrong}
            assert run(
                ["solve", "--model", mixed, "--grid", "square80", "--g", files["--g"],
                 "--h", files["--h"], "--dirichlet-edges", "1", "--out", out]
            ) == 1
            assert capsys.readouterr().err == f"error: {wrong} has {n} values, expected 80: one per grid point\n"
            assert not out.exists()

    def test_model_for_another_kernel_refused(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        assert json.loads(model.read_text())["kernel"] == {"family": "laplace2d", "k": 0.0}
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.5"] * 80))
        out = tmp_path / "field.csv"
        for argv in (
            ["solve", "--model", model, "--grid", "square80", "--g", g_file,
             "--equation", "helmholtz", "--k", 10, "--out", out],
            ["eval", "--model", model, "--suite", "helmholtz", "--k", 10, "--n", 80,
             "--out", tmp_path / "eval"],
        ):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert "'laplace2d'" in err and "'helmholtz2d', k=10.0" in err
        assert not out.exists()

    def test_model_for_another_grid_refused(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.5"] * 80))
        out = tmp_path / "out"
        for argv, run_side in (
            (["eval", "--model", model, "--suite", "laplace", "--n", 40, "--out", out], "40 points of square"),
            (["eval", "--model", model, "--suite", "laplace", "--domain", "star5", "--n", 80, "--out", out],
             "80 points of star5"),
            (["solve", "--model", model, "--grid", "circle80", "--g", g_file, "--out", out / "field.csv"],
             "80 points of circle"),
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err == (
                f"error: {model}: model was trained on 80 points of square, this run has {run_side}\n"
            )
            assert not out.exists()

    def test_model_without_a_domain_record_checked_by_size_alone(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        legacy = tmp_path / "legacy.json"
        payload = json.loads(model.read_text())
        del payload["domain"]
        legacy.write_text(json.dumps(payload))
        g_file, out = tmp_path / "g.csv", tmp_path / "field.csv"
        g_file.write_text("\n".join(["0.5"] * 80))
        assert run(["solve", "--model", legacy, "--grid", "circle80", "--g", g_file, "--out", out]) == 0
        g_file.write_text("\n".join(["0.5"] * 40))
        assert run(["solve", "--model", legacy, "--grid", "square40", "--g", g_file, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {legacy}: model was trained on 80 points of an unrecorded domain, this run has 40 points of square\n"
        )

    def test_mixed_solve_without_h_is_usage_error(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.5"] * 80))
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--model", model, "--grid", "square80", "--g", g_file,
                 "--dirichlet-edges", "1", "--out", tmp_path / "field.csv"])
        assert exc.value.code == 2
        assert "--h" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--source", "F", "--dirichlet-edges", "1", "--h", "G"],
         "solve --source and --dirichlet-edges cannot be combined"),
        (["--equation", "helmholtz", "--k", 3, "--source", "F"],
         "solve --equation helmholtz takes neither --source nor --dirichlet-edges"),
        (["--equation", "helmholtz", "--k", 3, "--dirichlet-edges", "1", "--h", "G"],
         "solve --equation helmholtz takes neither --source nor --dirichlet-edges"),
        (["--h", "G"], "solve --h is the Neumann part of a mixed problem; it needs --dirichlet-edges"),
        (["--k", 3], "solve --k is the Helmholtz wavenumber; it needs --equation helmholtz"),
        (["--mesh-h", 0.1, "--dirichlet-edges", "1", "--h", "G"], "solve --mesh-h is the source mesh size; it needs --source"),
    ], ids=["source-and-mixed", "helmholtz-source", "helmholtz-mixed", "h-alone", "k-without-helmholtz",
            "mesh-h-without-source"])
    def test_contradictory_solve_flags_are_usage_errors(self, laplace_run, tmp_path, capsys, flags, message):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.5"] * 80))
        files = {"F": tmp_path / "f.csv", "G": g_file}
        out = tmp_path / "field.csv"
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--model", model, "--grid", "square80", "--g", g_file,
                 *[files.get(f, f) for f in flags], "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")
        assert not out.exists()

    def test_3d_domain_has_no_evaluation_grid(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.5"] * 40))
        out = tmp_path / "field.csv"
        for argv in (
            ["solve", "--model", model, "--grid", "sphere40", "--g", g_file, "--out", out],
            ["eval", "--model", model, "--suite", "laplace", "--domain", "sphere", "--n", 80,
             "--out", tmp_path / "eval"],
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err == "error: an evaluation grid needs a 2-D domain, got 'sphere3d'\n"
        assert not out.exists()
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "margin,message",
        [("nan", "margin must be finite and non-negative, got nan"),
         ("-1", "margin must be finite and non-negative, got -1.0"),
         ("0.6", "margin 0.6 leaves no evaluation points")],
    )
    def test_eval_margin_refused(self, laplace_run, tmp_path, capsys, margin, message):
        _, _, model = laplace_run
        out = tmp_path / "eval"
        assert run(["eval", "--model", model, "--suite", "laplace", "--n", 80,
                    "--margin", margin, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and "config:" not in captured.out
        assert not out.exists()

    def test_solve_infinite_margin_refused(self, laplace_run, tmp_path, capsys):
        _, _, model = laplace_run
        g_file = tmp_path / "g.csv"
        g_file.write_text("\n".join(["0.5"] * 80))
        out = tmp_path / "field.csv"
        assert run(["solve", "--model", model, "--grid", "square80", "--g", g_file,
                    "--margin", "inf", "--out", out]) == 1
        assert capsys.readouterr().err == "error: margin must be finite and non-negative, got inf\n"
        assert not out.exists()

    def test_gen_to_a_file_fails_before_the_synthesis(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "data"
        out.write_text("")
        monkeypatch.setattr("tracemap.cli.build_dataset", lambda *a: pytest.fail("the synthesis ran"))
        assert run(["gen", "--equation", "laplace", "--n", 40, "--samples", 5, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"
        assert out.read_text() == ""

    def test_gen_infinite_wavenumber_refused(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert run(["gen", "--equation", "helmholtz", "--k", "inf", "--n", 40,
                    "--samples", 5, "--out", out]) == 1
        assert capsys.readouterr().err == "error: the wavenumber k must be finite, got inf\n"
        assert not out.exists()

    def test_missing_artifact_exits_nonzero(self, tmp_path):
        code = run(
            ["eval", "--model", tmp_path / "nope.json", "--suite", "laplace",
             "--out", tmp_path / "out"]
        )
        assert code != 0


def test_vertex_interpolant_reproduces_a_linear_source():
    mesh = triangulate_square(0.1)
    linear = lambda p: 2.0 + 3.0 * p[:, 0] - p[:, 1]
    f = _vertex_interpolant(mesh, linear(mesh.vertices))
    interior = np.random.default_rng(3).uniform(0.0, 1.0, size=(500, 2))
    nodes, _ = mesh_quadrature_nodes(mesh)
    for pts in (interior, nodes):
        np.testing.assert_allclose(f(pts), linear(pts), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(f(nodes[3][None, :]), linear(nodes[3][None, :]), rtol=0.0, atol=1e-14)
    off_mesh = np.array([[-0.1, 0.5], [0.5, 1.0 + 1e-9], [3.0, -2.0]])
    np.testing.assert_array_equal(f(off_mesh), 0.0)


class TestQuadbench:
    def test_report_schema_and_threshold(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run(["quadbench", "--h", 0.02, "--fail-above", 5e-4, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "integrand,h,computed,reference,rel_error"
        assert len(lines) == 3
        rels = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(rels) <= 5e-4

    def test_fail_above_gate(self, tmp_path):
        code = run(["quadbench", "--h", 0.2, "--fail-above", 1e-9])
        assert code == 1

    @pytest.mark.parametrize("r0", ["nan", "inf", "0", "-1"])
    def test_bad_r0_refused(self, capsys, r0):
        assert run(["quadbench", "--h", 0.2, f"--r0={r0}", "--fail-above", 1e-3]) == 1
        assert capsys.readouterr().err == f"error: r0 must be finite and positive, got {float(r0)!r}\n"

    def test_report_to_a_directory_fails_before_the_benchmark(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tracemap.cli.singular_log_integral", lambda *a: pytest.fail("the benchmark ran"))
        assert run(["quadbench", "--h", 0.2, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"

    def test_nan_error_fails_the_gate(self, monkeypatch, capsys):
        monkeypatch.setattr("tracemap.cli.singular_log_integral", lambda *a: float("nan"))
        assert run(["quadbench", "--h", 0.2]) == 1
        assert "nan" in capsys.readouterr().out
