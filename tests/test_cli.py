import os
import subprocess
import sys

import pytest

from stiefelmean.cli import main
from stiefelmean.fileio import read_sample_set


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "cloud.txt"
    code = run("gen", "--p", 20, "--n", 4, "--N", 10, "--sigma", 0.2,
               "--seed", 7, "--out", path)
    assert code == 0
    return path


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, stiefelmean.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_gen_writes_valid_file(sample_file):
    cloud = read_sample_set(sample_file)
    assert len(cloud) == 10
    assert cloud.center is not None
    assert cloud.seed == 7


def test_gen_requires_seed(tmp_path, capsys):
    code = run("gen", "--p", 4, "--n", 2, "--N", 3, "--sigma", 0.1,
               "--out", tmp_path / "x.txt")
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_gen_mean_validate_pipeline(sample_file, tmp_path, capsys):
    mean_out = tmp_path / "mean.txt"
    trace_out = tmp_path / "trace.csv"
    code = run("mean", "--in", sample_file, "--pair", "mixed",
               "--out", mean_out, "--trace", trace_out)
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert mean_out.exists() and trace_out.exists()
    assert trace_out.read_text().startswith("iter,step_size,delta_to_center")

    assert run("validate", mean_out) == 0
    assert run("validate", sample_file) == 0


def test_mean_is_deterministic(sample_file, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run("mean", "--in", sample_file, "--pair", "polar", "--out", a,
               "--trace", tmp_path / "ta.csv") == 0
    assert run("mean", "--in", sample_file, "--pair", "polar", "--out", b,
               "--trace", tmp_path / "tb.csv") == 0
    assert a.read_text() == b.read_text()


def test_mean_default_output_paths(sample_file):
    assert run("mean", "--in", sample_file, "--pair", "ortho") == 0
    assert sample_file.with_name(sample_file.name + ".mean.txt").exists()
    assert sample_file.with_name(sample_file.name + ".trace.csv").exists()


def test_mean_rejects_unsupported_pair(sample_file, capsys):
    code = run("mean", "--in", sample_file, "--pair", "ortho-polar")
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_mean_missing_file(tmp_path, capsys):
    code = run("mean", "--in", tmp_path / "absent.txt", "--pair", "mixed")
    assert code == 1


def test_mean_weighted(sample_file, tmp_path):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("\n".join(["1.0"] * 10) + "\n")
    assert run("mean", "--in", sample_file, "--weights", wfile,
               "--out", tmp_path / "wm.txt", "--trace", tmp_path / "wt.csv") == 0


def test_mean_bad_weights(sample_file, tmp_path, capsys):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("1.0\n-2.0\n" + "\n".join(["1.0"] * 8) + "\n")
    assert run("mean", "--in", sample_file, "--weights", wfile) == 1


def test_validate_scaled_point_exits_2(sample_file, tmp_path, capsys):
    cloud = read_sample_set(sample_file)
    bad = tmp_path / "bad.txt"
    lines = [f"20 4 1 0.0 7"]
    for row in 2.0 * cloud.samples[0].X:
        lines.append(" ".join(f"{v:.16e}" for v in row))
    bad.write_text("\n".join(lines) + "\n")
    code = run("validate", bad)
    captured = capsys.readouterr()
    assert code == 2
    assert "INVALID" in captured.out
    assert "defect" in captured.out


def test_validate_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "garbled.txt"
    bad.write_text("not a header\n")
    assert run("validate", bad) == 1
    assert "file format error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--sigma", "nan"), ("--sigma", "inf"),
    ("--epsilon-init", "nan"), ("--epsilon-init", "inf"),
])
def test_non_finite_spread_exits_2_with_one_line(sample_file, tmp_path, capsys, flag, value):
    if flag == "--sigma":
        code = run("gen", "--p", 4, "--n", 2, "--N", 3, "--sigma", value,
                   "--seed", 1, "--out", tmp_path / "x.txt")
    else:
        code = run("mean", "--in", sample_file, flag, value)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("numerical validation error:") and value in err


def test_validate_non_finite_header_sigma_exits_1(tmp_path, capsys):
    bad = tmp_path / "nan_sigma.txt"
    bad.write_text("1 1 1 nan 7\n1.0\n")
    assert run("validate", bad) == 1
    err = capsys.readouterr().err
    assert err == "file format error: line 1: sigma must be finite and nonnegative, got 'nan'\n"


def test_unknown_subcommand_exits_1(capsys):
    assert run("frobnicate") == 1


def test_exp_discrepancy(tmp_path, capsys):
    code = run("exp", "--kind", "discrepancy", "--seed", 11,
               "--outdir", tmp_path, "--N", 40)
    assert code == 0
    csv = tmp_path / "discrepancy_stats_11.csv"
    assert csv.exists()
    text = csv.read_text()
    assert text.startswith("# stiefelmean experiment")
    assert "seed=11" in text
    assert "k,delta_C_Xk,Delta_C_Xk" in text


def test_exp_convergence(tmp_path, capsys):
    code = run("exp", "--kind", "convergence", "--seed", 12,
               "--outdir", tmp_path, "--N", 8, "--sigma", 0.05)
    assert code == 0
    assert (tmp_path / "convergence_12.csv").exists()
    out = capsys.readouterr().out
    assert out.count("converged=True") == 3


def test_exp_runtime_small(tmp_path):
    code = run("exp", "--kind", "runtime-n", "--seed", 13, "--outdir", tmp_path,
               "--p", 10, "--sweep", "2,3", "--N", 3, "--trials", 2)
    assert code == 0
    text = (tmp_path / "runtime_vs_n_13.csv").read_text()
    assert "pair,dim,trial,wall_time_s,iterations,converged" in text


def test_exp_bad_sweep(tmp_path, capsys):
    assert run("exp", "--kind", "runtime-n", "--seed", 1, "--outdir", tmp_path,
               "--sweep", "5,abc") == 1


def test_exp_requires_seed(tmp_path):
    assert run("exp", "--kind", "convergence", "--outdir", tmp_path) == 1
