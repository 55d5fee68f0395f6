import json
import subprocess
import sys

import numpy as np
import pytest

from trpca import cli, imaging, make_dct, synth, tensor3
from trpca.cli import _parse_ratios


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDispatch:
    def test_synth_recover_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            ["synth-recover", "--n", "16", "--n3", "8", "--r", "2", "--m", "128",
             "--transform", "dct", "--seed", "7"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,r,m,rank_est")
        assert lines[0].endswith(",success,iterations,certified_failure")
        assert lines[1].startswith("16,2,128,")
        assert lines[1].split(",")[-1] in ("true", "false")

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run_cli(
            ["synth-recover", "--n", "16", "--r", "2", "--m", "10",
             "--transform", "dct"],
            capsys,
        )
        assert code == 1
        assert "--n3" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_1(self, capsys, threads):
        code, _, err = run_cli(
            ["diagnose", "--input", "x.bin", "--transform", "dct",
             "--threads", threads],
            capsys,
        )
        assert code == 1
        assert "--threads" in err and f"must be >= 1, got {threads}" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(["diagnose", "--frobnicate"], capsys)
        assert code == 1

    def test_shear_transform_file_exits_2_with_magnitude(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        shear = tmp_path / "shear.csv"
        shear.write_text("1,1\n0,1\n")
        x = tensor3.Tensor3(np.random.default_rng(0).standard_normal((4, 4, 2)))
        tensor3.write_tensor(x, tmp_path / "x.bin")
        code, _, err = run_cli(
            ["solve", "--input", str(tmp_path / "x.bin"),
             "--transform", f"file:{shear}",
             "--out-lowrank", str(tmp_path / "L.bin"),
             "--out-sparse", str(tmp_path / "S.bin")],
            capsys,
        )
        assert code == 2
        assert "deviation" in err
        assert "e" in err.lower()  # the magnitude is printed in scientific form

    def test_runtime_error_exits_2(self, capsys):
        code, _, err = run_cli(
            ["diagnose", "--input", "does-not-exist.bin", "--transform", "dct"],
            capsys,
        )
        assert code == 2

    def test_truncated_header_exits_2_naming_path_and_header(self, capsys, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(tensor3.MAGIC + b"\x04" * 10)
        code, _, err = run_cli(["diagnose", "--input", str(path),
                                "--transform", "dct"], capsys)
        assert code == 2
        assert str(path) in err and "header" in err

    def test_bad_rom_seed_exits_2_naming_spec(self, capsys, tmp_path):
        x = tensor3.Tensor3(np.ones((3, 3, 2)))
        tensor3.write_tensor(x, tmp_path / "x.bin")
        code, _, err = run_cli(["diagnose", "--input", str(tmp_path / "x.bin"),
                                "--transform", "rom:x"], capsys)
        assert code == 2
        assert "'rom:x'" in err and "rom:<seed>" in err

    def test_nan_tolerance_exits_2_naming_field(self, capsys, tmp_path):
        x = tensor3.Tensor3(np.ones((3, 3, 2)))
        tensor3.write_tensor(x, tmp_path / "x.bin")
        code, _, err = run_cli(
            ["solve", "--input", str(tmp_path / "x.bin"), "--transform", "dct",
             "--tol", "nan", "--out-lowrank", str(tmp_path / "L.bin"),
             "--out-sparse", str(tmp_path / "S.bin")],
            capsys,
        )
        assert code == 2
        assert "tol must be finite" in err

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "trpca" in capsys.readouterr().out


class TestSolveCommand:
    def make_input(self, tmp_path):
        t = make_dct(4)
        low = synth.gen_low_rank(10, 10, 4, 2, t, seed=1)
        sparse = synth.gen_sparse(10, 10, 4, 40, seed=2)
        path = tmp_path / "x.bin"
        tensor3.write_tensor(low + sparse, path)
        return path

    def test_solve_writes_outputs_and_manifest(self, capsys, tmp_path):
        x = self.make_input(tmp_path)
        args = ["solve", "--input", str(x), "--transform", "dct",
                "--out-lowrank", str(tmp_path / "L.bin"),
                "--out-sparse", str(tmp_path / "S.bin"),
                "--trace", str(tmp_path / "trace.csv")]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        low = tensor3.read_tensor(tmp_path / "L.bin")
        sparse = tensor3.read_tensor(tmp_path / "S.bin")
        assert low.dims == (10, 10, 4)
        assert sparse.dims == (10, 10, 4)
        manifest = json.loads((tmp_path / "L.bin.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config"]["max_iters"] == 500
        assert manifest["config"]["lam"] == pytest.approx(1 / np.sqrt(10))
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,primal_inf_norm,dL_inf,dS_inf,mu,objective"

    def test_rerun_is_bit_identical(self, capsys, tmp_path):
        x = self.make_input(tmp_path)
        blobs = []
        for tag in ("a", "b"):
            code, _, _ = run_cli(
                ["solve", "--input", str(x), "--transform", "dct",
                 "--out-lowrank", str(tmp_path / f"L{tag}.bin"),
                 "--out-sparse", str(tmp_path / f"S{tag}.bin")],
                capsys,
            )
            assert code == 0
            blobs.append(
                (tmp_path / f"L{tag}.bin").read_bytes()
                + (tmp_path / f"S{tag}.bin").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_csv_input_accepted(self, capsys, tmp_path):
        csv = tmp_path / "x.csv"
        csv.write_text("1,0\n0,1\n\n0,0\n0,0\n")
        code, _, _ = run_cli(
            ["solve", "--input", str(csv), "--transform", "dct",
             "--out-lowrank", str(tmp_path / "L.bin"),
             "--out-sparse", str(tmp_path / "S.bin")],
            capsys,
        )
        assert code == 0


class TestPhaseGridCommand:
    def test_grid_csv_shape(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            ["phase-grid", "--n", "12", "--n3", "6",
             "--rank-ratios", "0.05,0.3", "--sparsity-ratios", "0.05,0.3",
             "--trials", "1", "--transform", "dct", "--seed", "3",
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rank rows
        assert len(lines[1].split(",")) == 3  # label + 2 sparsity columns
        assert (tmp_path / "grid.csv.manifest.json").exists()
        assert "trials were certified failures" in out
        assert "had rel_err_low_rank <= 0.001" in out

    def test_ratio_range_parsing(self):
        assert _parse_ratios("0.05:0.1:0.45") == pytest.approx(
            [0.05, 0.15, 0.25, 0.35, 0.45]
        )
        assert _parse_ratios("0.1,0.2") == [0.1, 0.2]
        with pytest.raises(ValueError, match="start:step:stop"):
            _parse_ratios("0.1:0.2:0.3:0.4")


class TestDenoiseCommand:
    def test_denoise_image_end_to_end(self, capsys, tmp_path):
        src = tmp_path / "img.ppm"
        imaging.save_image(imaging.synthetic_low_rank_image(32, 32, seed=1), src)
        code, out, _ = run_cli(
            ["denoise-image", "--input", str(src), "--fraction", "0.1",
             "--seed", "5", "--transform", "dct",
             "--out", str(tmp_path / "rec.ppm"),
             "--report", str(tmp_path / "report.csv")],
            capsys,
        )
        assert code == 0
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == "image,psnr_corrupted_db,psnr_recovered_db,iterations,wall_seconds"
        fields = report[1].split(",")
        assert float(fields[2]) > float(fields[1])  # recovery improves PSNR
        assert imaging.load_image(tmp_path / "rec.ppm").tensor.dims == (32, 32, 3)


class TestDiagnoseCommand:
    def test_diagnose_prints_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        t = make_dct(4)
        low = synth.gen_low_rank(8, 8, 4, 2, t, seed=6)
        tensor3.write_tensor(low, tmp_path / "x.bin")
        code, out, _ = run_cli(
            ["diagnose", "--input", str(tmp_path / "x.bin"), "--transform", "dct"],
            capsys,
        )
        assert code == 0
        assert "tubal_rank: 2" in out
        assert "mu1:" in out
        assert (tmp_path / "trpca-diagnose.manifest.json").exists()


class TestEnvOverrides:
    def test_env_supplies_required_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TRPCA_N3", "8")
        code, out, _ = run_cli(
            ["synth-recover", "--n", "12", "--r", "1", "--m", "50",
             "--transform", "dct", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1].startswith("12,1,50,")

    @pytest.mark.parametrize(
        "name, value", [("TRPCA_N", "abc"), ("TRPCA_THREADS", "0")]
    )
    def test_bad_env_value_is_usage_error(
        self, capsys, tmp_path, monkeypatch, name, value
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(name, value)
        code, _, err = run_cli(
            ["phase-grid", "--n", "12", "--n3", "6", "--rank-ratios", "0.1",
             "--sparsity-ratios", "0.1", "--transform", "dct", "--out", "g.csv"],
            capsys,
        )
        assert code == 1
        assert f"{name}={value!r}" in err
        assert "Traceback" not in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "trpca.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "trpca" in result.stdout
