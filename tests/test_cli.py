import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stiefelmean.experiments as experiments
from stiefelmean.cli import main
from stiefelmean.errors import DomainError
from stiefelmean.fileio import read_matrix_blocks, read_sample_set, write_sample_set
from stiefelmean.manifold import (
    TOL_ORTH,
    Dims,
    SampleSet,
    StiefelPoint,
    discrepancy,
    orthonormality_defect,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "cloud.txt"
    code = run("gen", "--p", 20, "--n", 4, "--N", 10, "--sigma", 0.2,
               "--seed", 7, "--out", path)
    assert code == 0
    return path


SCIPY_MODULES_AFTER = """
import json, sys
def scipy_modules():
    print("loaded", json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
import stiefelmean
scipy_modules()
from stiefelmean.cli import main
scipy_modules()
for argv in (["gen", "--p", "20", "--n", "4", "--N", "30", "--sigma", "0.2", "--seed", "1",
              "--out", "small.txt"],
             ["validate", "small.txt"],
             ["mean", "--in", "small.txt"],
             # every generator's 2-norm bound is past ACTION_RADIUS
             ["gen", "--p", "6", "--n", "2", "--N", "3", "--sigma", "5", "--seed", "1",
              "--out", "large.txt"]):
    assert main(argv) == 0
    scipy_modules()
"""


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # importing the package or the CLI, and generating, checking and
    # averaging a small-spread cloud load no scipy module at all; only a
    # generator past the action's radius loads scipy.linalg, for its expm
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", SCIPY_MODULES_AFTER], env=env, check=True,
                         capture_output=True, text=True, cwd=tmp_path).stdout
    lists = [json.loads(line[7:]) for line in out.splitlines() if line.startswith("loaded ")]
    *small, large = lists
    assert small == [[]] * 5
    assert "scipy.linalg" in large
    assert not any(m.startswith("scipy.stats") for m in large)


@pytest.mark.parametrize("sigma", ["1e20", "1e200", "1e308"])
def test_gen_at_a_huge_spread_exits_2_with_one_line(tmp_path, sigma):
    # the rotations lose every digit or overflow: a typed error, printed as
    # one line, in development mode with every warning an error
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "stiefelmean", "gen", "--p", "6",
         "--n", "2", "--N", "2", "--sigma", sigma, "--seed", "1", "--out", tmp_path / "x.txt"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("numerical ")
    assert not (tmp_path / "x.txt").exists()


def test_python_dash_m_runs_the_cli_and_returns_its_status(sample_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for path, status, out in ((sample_file, 0, "sample 9: orthonormality defect"),
                              (tmp_path / "missing.txt", 1, "")):
        done = subprocess.run([sys.executable, "-m", "stiefelmean", "validate", str(path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == status, done.stderr
        assert out in done.stdout


def test_validate_fails_huge_entries_without_a_warning(tmp_path, capsys):
    # X^T X overflows: the defect is inf, reported like any other
    path = tmp_path / "huge.txt"
    path.write_text("4 2 1 0.0 7\n" + "1e200 1e200\n" * 4)
    assert run("validate", path) == 2
    assert "sample 0: orthonormality defect inf [INVALID]" in capsys.readouterr().out


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


def test_mean_retraction_failure_prints_its_iteration_only(tmp_path, capsys):
    # samples at 0 and +-90 degrees on the circle; the initial guess is
    # sample 0 turned slightly, where the weights make the orthographic
    # tangent about (1 - 1e-6) / (1 + 2e-6) long, at the retraction's reach 1
    points = [StiefelPoint(np.array([[math.cos(t)], [math.sin(t)]]))
              for t in (0.0, math.pi / 2.0, -math.pi / 2.0)]
    cloud = SampleSet(dims=Dims(2, 1), center=points[0], sigma=0.0, seed=5,
                      stack=tuple(points))
    infile, wfile = tmp_path / "circle.txt", tmp_path / "weights.txt"
    write_sample_set(infile, cloud)
    wfile.write_text("1e-6\n1\n1e-6\n")
    assert run("mean", "--in", infile, "--pair", "ortho", "--weights", wfile) == 2
    assert capsys.readouterr().err == (
        "numerical domain error: retraction failed: inner iteration "
        "did not reach residual 1.0e-12 within 100 steps; tangent too large for "
        "the orthographic retraction (iteration 0)\n"
    )


@pytest.mark.parametrize("pair", ["polar", "ortho", "mixed"])
def test_mean_lifting_failure_names_its_iteration_and_sample_once(tmp_path, capsys, pair):
    # at sigma 3 on the circle St(2, 1), sample 5 is the first sample past
    # the guard from the initial guess, so every pair's first tangent fails
    cloud = tmp_path / "cloud.txt"
    assert run("gen", "--p", 2, "--n", 1, "--N", 20, "--sigma", 3, "--seed", 1,
               "--out", cloud) == 0
    capsys.readouterr()
    assert run("mean", "--in", cloud, "--pair", pair) == 2
    err = capsys.readouterr().err
    lifting = "polar" if pair == "polar" else "orthographic"
    assert err == (
        f"numerical domain error: lifting failed: {lifting} lifting: arguments too far "
        "apart (discrepancy 1.999 >= 1.5) (iteration 0, sample 5)\n")
    assert err.count("iteration 0") == err.count("sample 5") == 1


@pytest.mark.parametrize("pair", ["polar", "ortho", "mixed"])
@pytest.mark.parametrize("n_samples, epsilon", [(10, "0.01"), (1, "1e-300")],
                         ids=["steps", "no-step"])
def test_mean_prints_the_center_discrepancy_of_the_point_it_writes(
        tmp_path, capsys, pair, n_samples, epsilon):
    # the discrepancy line is that of the written mean point to the stored
    # center, formatted as before, also for a run that takes no step
    cloud, out, trace = tmp_path / "cloud.txt", tmp_path / "mean.txt", tmp_path / "trace.csv"
    assert run("gen", "--p", 6, "--n", 2, "--N", n_samples, "--sigma", 0.1, "--seed", 3,
               "--out", cloud) == 0
    capsys.readouterr()
    assert run("mean", "--in", cloud, "--pair", pair, "--epsilon-init", epsilon,
               "--out", out, "--trace", trace) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [row.split(",") for row in trace.read_text().splitlines()[1:]]
    last = f"last step {float(rows[-1][1]):.3e}, " if len(rows) > 1 else ""
    assert lines[0].startswith(
        f"{pair} mean converged after {len(rows) - 1} iterations ({last}residual field ")
    center = read_sample_set(cloud).center
    mean = StiefelPoint(read_matrix_blocks(out)[1][0])
    assert lines[1:] == [
        f"discrepancy to the stored center: {discrepancy(mean, center):.6e}",
        f"mean point written to {out}; iteration trace written to {trace}",
    ]


def test_mean_bad_weights(sample_file, tmp_path, capsys):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("1.0\n-2.0\n" + "\n".join(["1.0"] * 8) + "\n")
    assert run("mean", "--in", sample_file, "--weights", wfile) == 1


@pytest.mark.parametrize("token", ["inf", "nan", "-inf"])
def test_mean_non_finite_weight_exits_1_at_its_line(sample_file, tmp_path, capsys, token):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("1.0\n1.0\n" + token + "\n" + "\n".join(["1.0"] * 7) + "\n")
    assert run("mean", "--in", sample_file, "--weights", wfile) == 1
    assert capsys.readouterr().err == (
        f"usage error: {wfile}: line 3: weight must be finite and positive, got {token}\n"
    )


def test_mean_weights_file_skips_blank_lines(sample_file, tmp_path):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("\n" + "\n \n".join(["1.0"] * 10) + "\n\n\t\n")
    out = tmp_path / "spaced.txt"
    assert run("mean", "--in", sample_file, "--weights", wfile, "--out", out,
               "--trace", tmp_path / "spaced.csv") == 0
    plain = tmp_path / "plain.txt"
    assert run("mean", "--in", sample_file, "--out", plain,
               "--trace", tmp_path / "plain.csv") == 0
    assert out.read_text() == plain.read_text()


def test_mean_unparseable_weight_exits_1_at_its_line(sample_file, tmp_path, capsys):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("1.0\n\n1,5\n" + "\n".join(["1.0"] * 8) + "\n")
    assert run("mean", "--in", sample_file, "--weights", wfile) == 1
    assert capsys.readouterr().err == (
        f"usage error: {wfile}: line 3: could not parse weight '1,5'\n"
    )


def test_mean_undecodable_weight_exits_1_at_its_line(sample_file, tmp_path, capsys):
    wfile = tmp_path / "weights.txt"
    wfile.write_bytes(b"1.0\n\n1.0\xff\n" + b"1.0\n" * 8)
    assert run("mean", "--in", sample_file, "--weights", wfile) == 1
    assert capsys.readouterr().err == (
        f"usage error: {wfile}: line 3: byte 0xff is not UTF-8 text\n"
    )


@pytest.mark.parametrize("count", [9, 11])
def test_mean_wrong_weight_count_exits_1(sample_file, tmp_path, capsys, count):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("\n".join(["1.0"] * count) + "\n")
    assert run("mean", "--in", sample_file, "--weights", wfile) == 1
    assert capsys.readouterr().err == (
        f"usage error: {wfile}: expected 10 weights (one per sample), got {count}\n"
    )


@pytest.mark.parametrize("weight, total", [("1e308", "inf"), ("5e-324", "5e-323")])
def test_mean_weight_sum_out_of_range_exits_2(sample_file, tmp_path, capsys, weight, total):
    wfile = tmp_path / "weights.txt"
    wfile.write_text(f"{weight}\n" * 10)
    assert run("mean", "--in", sample_file, "--weights", wfile) == 2
    assert capsys.readouterr().err == (
        f"numerical validation error: the sum of the weights must be finite and normal, "
        f"got {total}\n"
    )


def test_mean_nan_conv_tol_exits_2_with_one_line(sample_file, capsys):
    assert run("mean", "--in", sample_file, "--conv-tol", "nan") == 2
    assert capsys.readouterr().err == (
        "numerical validation error: conv_tol must be finite and positive, got nan\n"
    )


@pytest.mark.parametrize("pair", ["polar", "ortho", "mixed"])
def test_mean_from_a_zero_of_the_field_takes_no_step(tmp_path, capsys, pair):
    # one sample and an initial guess 1e-300 from it: the field there is
    # below conv_tol, so the run converges with no step and the line names
    # none
    cloud, trace = tmp_path / "cloud.txt", tmp_path / "trace.csv"
    assert run("gen", "--p", 6, "--n", 2, "--N", 1, "--sigma", 0.1, "--seed", 3,
               "--out", cloud) == 0
    capsys.readouterr()
    assert run("mean", "--in", cloud, "--pair", pair, "--epsilon-init", 1e-300,
               "--out", tmp_path / "mean.txt", "--trace", trace) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"{pair} mean converged after 0 iterations (residual field ")
    assert line.endswith(")")
    rows = trace.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,,")


def test_weighted_ortho_mean_keeps_its_iterates_orthonormal(tmp_path, capsys):
    # weights drawn from [0.2, 3]: the orthographic retraction solves on the
    # Gram of X + V, so the defect an iterate carries stays at rounding level
    cloud, wfile = tmp_path / "cloud.txt", tmp_path / "weights.txt"
    assert run("gen", "--p", 20, "--n", 4, "--N", 30, "--sigma", 0.01,
               "--seed", 3, "--out", cloud) == 0
    weights = np.random.default_rng(1).uniform(0.2, 3.0, 30)
    wfile.write_text("\n".join(repr(float(w)) for w in weights) + "\n")
    means = {}
    for pair in ("ortho", "mixed"):
        out = tmp_path / f"{pair}.txt"
        assert run("mean", "--in", cloud, "--pair", pair, "--weights", wfile,
                   "--out", out, "--trace", tmp_path / f"{pair}.csv") == 0
        means[pair] = read_sample_set(out).samples[0]
    assert "ortho mean converged" in capsys.readouterr().out
    assert orthonormality_defect(means["ortho"].X) < 1e-13
    assert discrepancy(means["ortho"], means["mixed"]) < 1e-11


def test_validate_scaled_point_exits_2(sample_file, tmp_path, capsys):
    cloud = read_sample_set(sample_file)
    bad = tmp_path / "bad.txt"
    lines = [f"20 4 1 0.0 7"]
    for row in 2.0 * cloud.stack[0]:
        lines.append(" ".join(f"{v:.16e}" for v in row))
    bad.write_text("\n".join(lines) + "\n")
    code = run("validate", bad)
    captured = capsys.readouterr()
    assert code == 2
    assert "INVALID" in captured.out
    assert "defect" in captured.out


def test_validate_prints_each_blocks_own_defect(sample_file, tmp_path, capsys):
    # the batched defects print exactly what orthonormality_defect gives
    # for each block, rounding bits included
    header, blocks = read_matrix_blocks(sample_file)
    blocks[3] = blocks[3] + 1e-12 * np.arange(80.0).reshape(20, 4)
    blocks[7] = 1.5 * blocks[7]
    bad = tmp_path / "bad.txt"
    lines = ["20 4 10 0.2 7 C"]
    for block in blocks:
        lines.extend(" ".join(f"{v:.17e}" for v in row) for row in block)
        lines.append("")
    bad.write_text("\n".join(lines))
    assert run("validate", bad) == 2
    labels = ["center"] + [f"sample {k}" for k in range(10)]
    expected = []
    for label, block in zip(labels, read_matrix_blocks(bad)[1]):
        d = orthonormality_defect(block)
        verdict = "ok" if d < TOL_ORTH else "INVALID"
        expected.append(f"{label}: orthonormality defect {d:.6e} [{verdict}]\n")
    captured = capsys.readouterr()
    assert captured.out == "".join(expected)
    assert captured.out.count("INVALID") == 1
    assert captured.err.startswith("validation failed: worst defect ")


def test_validate_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "garbled.txt"
    bad.write_text("not a header\n")
    assert run("validate", bad) == 1
    assert "file format error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "mean"])
def test_undecodable_sample_file_exits_1_with_one_line(sample_file, tmp_path, capsys, command):
    lines = sample_file.read_bytes().split(b"\n")
    lines[5] += b"\xff"
    bad = tmp_path / "undecodable.txt"
    bad.write_bytes(b"\n".join(lines))
    assert run(command, *([bad] if command == "validate" else ["--in", bad])) == 1
    assert capsys.readouterr().err == "file format error: line 6: byte 0xff is not UTF-8 text\n"


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


@pytest.mark.parametrize("case", ["gen", "header", "init-seed", "exp"])
def test_negative_seed_prints_one_line(sample_file, tmp_path, capsys, case):
    if case == "gen":
        code = run("gen", "--p", 4, "--n", 2, "--N", 3, "--sigma", 0.1,
                   "--seed", -1, "--out", tmp_path / "x.txt")
    elif case == "header":
        text = sample_file.read_text().split("\n", 1)
        bad = tmp_path / "negative_seed.txt"
        bad.write_text(text[0].replace(" 7 C", " -5 C") + "\n" + text[1])
        code = run("mean", "--in", bad)
    elif case == "init-seed":
        code = run("mean", "--in", sample_file, "--init-seed", -3)
    else:
        code = run("exp", "--kind", "convergence", "--seed", -2, "--outdir", tmp_path)
    err = capsys.readouterr().err
    expected = {
        "gen": (2, "numerical validation error: seed must be a nonnegative integer, got -1\n"),
        "header": (1, "file format error: line 1: seed must be a nonnegative integer, got -5\n"),
        "init-seed": (2, "numerical validation error: seed must be a nonnegative integer, got -3\n"),
        "exp": (2, "numerical validation error: seed must be a nonnegative integer, got -2\n"),
    }[case]
    assert (code, err) == expected


def test_validate_non_finite_header_sigma_exits_1(tmp_path, capsys):
    bad = tmp_path / "nan_sigma.txt"
    bad.write_text("1 1 1 nan 7\n1.0\n")
    assert run("validate", bad) == 1
    err = capsys.readouterr().err
    assert err == "file format error: line 1: sigma must be finite and nonnegative, got nan\n"


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
    assert out.count("converged=true") == 3


def test_exp_convergence_prints_a_failed_pair_and_exits_0(tmp_path, capsys, monkeypatch):
    inner = experiments.fixed_point_mean

    def failing(samples, config, initial):
        if config.pair.label == "ortho":
            raise DomainError("injected failure")
        return inner(samples, config, initial)

    monkeypatch.setattr(experiments, "fixed_point_mean", failing)
    code = run("exp", "--kind", "convergence", "--seed", 12,
               "--outdir", tmp_path, "--N", 8, "--sigma", 0.05)
    assert code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith("\npair=ortho FAILED: injected failure\n")
    assert out.count("converged=true") == 2
    text = (tmp_path / "convergence_12.csv").read_text()
    assert "# pair=ortho FAILED: injected failure\n" in text


@pytest.mark.parametrize("kind, flags", [
    ("discrepancy", ("--N", 20)),
    ("convergence", ("--N", 8, "--sigma", 0.05)),
    ("runtime-n", ("--p", 6, "--sweep", "2,3", "--N", 3, "--trials", 1)),
    ("runtime-p", ("--n", 2, "--sweep", "3,4", "--N", 3, "--trials", 1)),
])
def test_exp_prints_the_summary_its_csv_writes(tmp_path, capsys, kind, flags):
    assert run("exp", "--kind", kind, "--seed", 14, "--outdir", tmp_path, *flags) == 0
    first, *printed = capsys.readouterr().out.splitlines()
    (csv,) = tmp_path.iterdir()
    assert first == f"{csv.stem[:-len('_14')]} finished; CSV written to {csv}"
    comments = [line for line in csv.read_text().splitlines() if line.startswith("#")]
    assert comments[1].startswith("# machine ")
    assert printed and printed == [line[len("# "):] for line in comments[2:]]


def test_exp_runtime_small(tmp_path):
    code = run("exp", "--kind", "runtime-n", "--seed", 13, "--outdir", tmp_path,
               "--p", 10, "--sweep", "2,3", "--N", 3, "--trials", 2)
    assert code == 0
    text = (tmp_path / "runtime_vs_n_13.csv").read_text()
    assert "pair,dim,trial,wall_time_s,iterations,converged" in text


@pytest.mark.parametrize("kind, flags, code, timed, err", [
    # a runtime spec has only the fixed dimension; each swept value makes
    # one St(p, n)
    ("runtime-n", ("--p", 4, "--sweep", "2,3", "--trials", 1), 0, {(4, 2), (4, 3)}, ""),
    ("runtime-p", ("--n", 30, "--sweep", "40,50", "--trials", 1), 0,
     {(40, 30), (50, 30)}, ""),
    # St(6, 9) is rejected before St(6, 2) is timed
    ("runtime-n", ("--p", 6, "--sweep", "2,9", "--trials", 1), 2, set(),
     "numerical validation error: need 1 <= n <= p, got (6, 9)\n"),
    ("convergence", ("--trials", 5, "--sweep", "5,10", "--paper-scale"), 2, set(),
     "numerical validation error: convergence runs a single draw; it takes no "
     "trials or sweep, got trials=5 sweep=(5, 10)\n"),
    # the swept dimension takes no value: it would be written, unused, to the CSV
    ("runtime-n", ("--p", 12, "--n", 7, "--sweep", "2,3", "--trials", 1), 2, set(),
     "numerical validation error: runtime_vs_n sweeps n: give its values in sweep, "
     "not n=7\n"),
], ids=["runtime-n-p4", "runtime-p-n30", "runtime-n-past-p", "convergence-trials-sweep",
        "runtime-n-swept-n"])
def test_exp_checks_the_dimensions_and_options_its_run_uses(
        tmp_path, monkeypatch, capsys, kind, flags, code, timed, err):
    seen = set()
    inner = experiments.fixed_point_mean

    def recorded(samples, config, initial):
        seen.add((samples.dims.p, samples.dims.n))
        return inner(samples, config, initial)

    monkeypatch.setattr(experiments, "fixed_point_mean", recorded)
    assert run("exp", "--kind", kind, "--seed", 1, "--outdir", tmp_path, "--N", 3,
               *flags) == code
    assert seen == timed
    assert capsys.readouterr().err == err
    assert len(list(tmp_path.iterdir())) == (code == 0)


def test_exp_bad_sweep(tmp_path, capsys):
    assert run("exp", "--kind", "runtime-n", "--seed", 1, "--outdir", tmp_path,
               "--sweep", "5,abc") == 1


def test_exp_requires_seed(tmp_path):
    assert run("exp", "--kind", "convergence", "--outdir", tmp_path) == 1
