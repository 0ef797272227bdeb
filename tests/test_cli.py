import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epsentropy import cli
from epsentropy.asymptotics import exp_pivot_ci, normal_ci
from epsentropy.core import RngStream, SeriesSample, read_sample_csv, write_sample_csv
from epsentropy.discrete import DiscreteSample, discrete_report, discrete_residual
from epsentropy.epskeys import rank_candidates
from epsentropy.estimators import EstimateConfig, estimate_report
from epsentropy.gof import gof_statistic
from epsentropy.montecarlo import SimulationPlan, run_residual_study
from epsentropy.processes import generate, iid_uniform_process, ma2_normal_process


@pytest.fixture()
def sample_csv(tmp_path):
    series = generate(iid_uniform_process(1), 150, RngStream(500, 0))
    path = str(tmp_path / "sample.csv")
    write_sample_csv(series.sample, path)
    return path, series.sample


@pytest.fixture()
def table_csv(tmp_path):
    gen = RngStream(501, 0).generator()
    table = gen.integers(0, 5, size=(40, 3)).astype(float)
    path = str(tmp_path / "table.csv")
    write_sample_csv(SeriesSample(table), path)
    return path, table


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_matches_library(sample_csv, tmp_path):
    path, sample = sample_csv
    out = str(tmp_path / "est.json")
    assert cli.main(["estimate", "--input", path, "--eps", "0.05", "--r", "2",
                     "--output", out]) == 0
    doc = _load(out)
    ref = estimate_report(sample, EstimateConfig(eps=0.05, r=2))
    assert doc["report"] == json.loads(json.dumps(ref.to_dict()))
    assert doc["run"] == {"subcommand": "estimate", "input": path,
                          "eps": 0.05, "eps0": None, "r": 2}
    assert "intervals" not in doc


def test_estimate_interval_stack(sample_csv, tmp_path):
    path, sample = sample_csv
    out = str(tmp_path / "est.json")
    assert cli.main(["estimate", "--input", path, "--eps", "0.05", "--r", "2",
                     "--ci", "sqrtn", "--exp-pivot", "--level", "0.9",
                     "--output", out]) == 0
    doc = _load(out)
    assert [iv["method"] for iv in doc["intervals"]] == ["normal_q2", "normal_h2", "exp_pivot"]
    ref = estimate_report(sample, EstimateConfig(eps=0.05, r=2))
    assert doc["intervals"][0] == normal_ci(ref, target="q2", regime="sqrtn", level=0.9).to_dict()
    assert doc["intervals"][1] == normal_ci(ref, target="h2", regime="sqrtn", level=0.9).to_dict()
    assert doc["intervals"][2] == exp_pivot_ci(sample, level=0.9).to_dict()


def test_estimate_stdout_equals_file(sample_csv, tmp_path, capsys):
    path, _ = sample_csv
    out = str(tmp_path / "est.json")
    assert cli.main(["estimate", "--input", path, "--eps", "0.1", "--output", out]) == 0
    assert cli.main(["estimate", "--input", path, "--eps", "0.1"]) == 0
    captured = capsys.readouterr()
    with open(out) as fh:
        assert captured.out == fh.read()
    assert captured.out.endswith("\n")


def test_estimate_runs_are_byte_identical(sample_csv, tmp_path):
    path, _ = sample_csv
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert cli.main(["estimate", "--input", path, "--eps", "0.05", "--r", "1",
                         "--ci", "neps", "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _plan_file(tmp_path, base_seed=77):
    plan = SimulationPlan(
        spec=iid_uniform_process(1),
        n=80,
        n_sim=6,
        config=EstimateConfig(eps=0.05),
        kind="q_sqrtn",
        base_seed=base_seed,
    )
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        json.dump(plan.to_json(), fh)
    return path, plan


def test_simulate_matches_library(tmp_path):
    path, plan = _plan_file(tmp_path)
    out = str(tmp_path / "sim.json")
    csv_out = str(tmp_path / "res.csv")
    assert cli.main(["simulate", "--plan", path, "--residuals-csv", csv_out,
                     "--output", out]) == 0
    doc = _load(out)
    ref = run_residual_study(plan)
    assert doc["outcome"]["residuals"] == json.loads(json.dumps(ref.residuals))
    assert doc["plan"] == json.loads(json.dumps(plan.to_json()))
    assert doc["run"]["seed"] == 77
    with open(csv_out) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == plan.n_sim + 1 and lines[0] == "residual"


def test_simulate_seed_override(tmp_path):
    path, plan = _plan_file(tmp_path)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert cli.main(["simulate", "--plan", path, "--output", out_a]) == 0
    assert cli.main(["simulate", "--plan", path, "--seed", "123", "--output", out_b]) == 0
    doc_a, doc_b = _load(out_a), _load(out_b)
    assert doc_b["run"]["seed"] == 123
    assert doc_b["plan"]["base_seed"] == 123
    assert doc_a["outcome"]["residuals"] != doc_b["outcome"]["residuals"]


def test_simulate_rejects_malformed_plan(tmp_path, capsys):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cli.main(["simulate", "--plan", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# gof
# ---------------------------------------------------------------------------

def test_gof_matches_library(sample_csv, tmp_path):
    path, sample = sample_csv
    out = str(tmp_path / "gof.json")
    assert cli.main(["gof", "--input", path, "--eps", "0.25", "--delta", "0.2",
                     "--output", out]) == 0
    doc = _load(out)
    ref = gof_statistic(sample, eps=0.25, delta=0.2)
    assert doc["gof"] == json.loads(json.dumps(ref.to_dict()))
    assert doc["run"]["delta"] == 0.2


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_keys_by_size_matches_library(table_csv, tmp_path):
    path, table = table_csv
    out = str(tmp_path / "keys.json")
    assert cli.main(["keys", "--input", path, "--eps", "0.9", "--size", "1",
                     "--output", out]) == 0
    doc = _load(out)
    ref = rank_candidates(read_sample_csv(path), [(0,), (1,), (2,)], 0.9)
    assert doc["candidates"] == [json.loads(json.dumps(c.to_dict())) for c in ref]


def test_keys_by_explicit_subsets(table_csv, tmp_path):
    path, _ = table_csv
    out = str(tmp_path / "keys.json")
    assert cli.main(["keys", "--input", path, "--eps", "0.9",
                     "--subsets", "0,1; 0,2", "--output", out]) == 0
    doc = _load(out)
    got = {tuple(c["attributes"]) for c in doc["candidates"]}
    assert got == {(0, 1), (0, 2)}


def test_keys_requires_exactly_one_selector(table_csv, capsys):
    path, _ = table_csv
    assert cli.main(["keys", "--input", path, "--eps", "0.9"]) == 1
    assert cli.main(["keys", "--input", path, "--eps", "0.9",
                     "--size", "1", "--subsets", "0,1"]) == 1
    err = capsys.readouterr().err
    assert all(line.startswith("error: ") for line in err.splitlines())


def test_keys_rejects_empty_subset_group(table_csv, capsys):
    path, _ = table_csv
    assert cli.main(["keys", "--input", path, "--eps", "0.9", "--subsets", "0,1;;2"]) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("rows,selector,eps,message", [
    (40, ["--subsets", "0,3"], "0.9", "column 3 outside [0, 3)"),
    (40, ["--subsets", "-1"], "0.9", "column -1 outside [0, 3)"),
    (40, ["--subsets", "1,1"], "0.9", "projection columns must be distinct"),
    (1, ["--size", "1"], "0.9", "need at least two rows to look for collisions"),
    (40, ["--size", "2"], "0", "eps must be positive and finite, got 0.0"),
    (40, ["--size", "2"], "-1", "eps must be positive and finite, got -1.0"),
    (40, ["--size", "2"], "nan", "eps must be positive and finite, got nan"),
    (40, ["--size", "2"], "inf", "eps must be positive and finite, got inf"),
    (40, ["--size", "2"], "1e200", "ball volume overflows at radius 1e+200 in dimension 2"),
    (40, ["--size", "2"], "1e-170", "ball volume underflows to 0 at radius 1e-170 in dimension 2"),
    # the checks run in the order a subset-by-subset scoring meets them: the
    # first subset's columns, the rows, eps, the ball volume, the later subsets
    (40, ["--subsets", "0,5;0,1"], "0", "column 5 outside [0, 3)"),
    (40, ["--subsets", "0,1;0,5"], "0", "eps must be positive and finite, got 0.0"),
    (40, ["--subsets", "0,1;0,5"], "1e200", "ball volume overflows at radius 1e+200 in dimension 2"),
    (40, ["--subsets", "0,1;2,2"], "0.9", "projection columns must be distinct"),
    (1, ["--size", "2"], "0", "need at least two rows to look for collisions"),
    (1, ["--subsets", "0,9"], "0", "column 9 outside [0, 3)"),
])
def test_keys_rejections_come_before_any_count(tmp_path, capsys, monkeypatch, rows, selector, eps,
                                               message):
    def no_count(*args):
        raise AssertionError("counted pairs of a rejected input")

    monkeypatch.setattr("epsentropy.epskeys.count_subset_pairs", no_count)
    path = str(tmp_path / "table.csv")
    table = RngStream(501, 0).generator().integers(0, 5, size=(rows, 3)).astype(float)
    write_sample_csv(SeriesSample(table), path)
    assert cli.main(["keys", "--input", path, "--eps", eps] + selector) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_matches_library_stream(tmp_path, capsys):
    csv_out = str(tmp_path / "gen.csv")
    assert cli.main(["generate", "--family", "iid_uniform", "--params", '{"d": 2}',
                     "--n", "40", "--seed", "11", "--output", csv_out]) == 0
    capsys.readouterr()  # manifest goes to stdout; the CSV is the artifact here
    ref = generate(iid_uniform_process(2), 40, RngStream(11, 0)).sample
    got = read_sample_csv(csv_out)
    assert np.array_equal(got.points, ref.points)


def test_generate_from_spec_file_is_deterministic(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(ma2_normal_process().to_json(), fh)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert cli.main(["generate", "--spec", spec_path, "--n", "64",
                         "--seed", "3", "--output", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert read_sample_csv(str(a)).n == 64


def test_generate_stdout_manifest(tmp_path, capsys):
    csv_out = str(tmp_path / "gen.csv")
    assert cli.main(["generate", "--family", "iid_uniform", "--params", '{"d": 1}',
                     "--n", "25", "--seed", "4", "--output", csv_out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 25 and doc["columns"] == 1
    assert doc["spec"]["family"] == "iid_uniform"
    assert doc["run"]["seed"] == 4


def test_generate_requires_exactly_one_source(tmp_path, capsys):
    csv_out = str(tmp_path / "gen.csv")
    assert cli.main(["generate", "--n", "10", "--output", csv_out]) == 1
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"family": "iid_uniform", "params": {"d": 1}}, fh)
    assert cli.main(["generate", "--spec", spec_path, "--family", "iid_uniform",
                     "--n", "10", "--output", csv_out]) == 1
    err = capsys.readouterr().err
    assert "exactly one of --spec or --family" in err


# ---------------------------------------------------------------------------
# discrete
# ---------------------------------------------------------------------------

@pytest.fixture()
def symbols_csv(tmp_path):
    gen = RngStream(502, 0).generator()
    # skewed alphabet keeps the asymptotic variance bounded away from zero
    symbols = gen.choice(4, size=200, p=[0.55, 0.2, 0.15, 0.1])
    path = str(tmp_path / "symbols.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(str(int(s)) for s in symbols) + "\n")
    return path, symbols


def test_discrete_matches_library(symbols_csv, tmp_path):
    path, symbols = symbols_csv
    out = str(tmp_path / "disc.json")
    assert cli.main(["discrete", "--input", path, "--r", "1", "--output", out]) == 0
    doc = _load(out)
    ref = discrete_report(DiscreteSample(symbols), 1)
    assert doc["report"] == json.loads(json.dumps(ref.to_dict()))
    assert "residual" not in doc


def test_discrete_residual_flags(symbols_csv, tmp_path):
    path, symbols = symbols_csv
    out = str(tmp_path / "disc.json")
    assert cli.main(["discrete", "--input", path, "--r", "1",
                     "--truth", "0.25", "--kind", "q", "--output", out]) == 0
    doc = _load(out)
    ref = discrete_residual(DiscreteSample(symbols), 1, 0.25, "q")
    assert doc["residual"] == json.loads(json.dumps(ref))
    assert doc["run"]["truth"] == 0.25 and doc["run"]["kind"] == "q"


def test_discrete_truth_needs_kind(symbols_csv, capsys):
    path, _ = symbols_csv
    assert cli.main(["discrete", "--input", path, "--truth", "0.25"]) == 1
    assert "needs --kind" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error and exit-code contract
# ---------------------------------------------------------------------------

def test_missing_input_file_is_a_clean_failure(tmp_path, capsys):
    assert cli.main(["estimate", "--input", str(tmp_path / "nope.csv"), "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_symbol_is_a_clean_failure(tmp_path, capsys):
    path = tmp_path / "symbols.csv"
    path.write_text("1\n2\n99999999999999999999\n")
    assert cli.main(["discrete", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "row 3 column 1" in err


@pytest.mark.parametrize("subcommand", ["estimate", "gof"])
def test_malformed_sample_is_a_clean_failure(tmp_path, capsys, subcommand):
    path = tmp_path / "sample.csv"
    path.write_text("x\n1.5\n2.5\n3,5\n")
    assert cli.main([subcommand, "--input", str(path), "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ragged row 3" in err


@pytest.mark.parametrize("argv,d", [
    (["estimate", "--eps", "0.1", "--eps0", "1e-170"], 1),
    (["estimate", "--eps", "1e-170"], 2),
    (["keys", "--eps", "1e-170", "--size", "2"], 2),
    (["gof", "--eps", "1e-170"], 2),
])
def test_radius_whose_ball_volume_underflows_is_a_clean_failure(tmp_path, capsys, argv, d):
    path = str(tmp_path / "sample.csv")
    write_sample_csv(SeriesSample(RngStream(502, 0).generator().normal(size=(6, d))), path)
    assert cli.main(argv[:1] + ["--input", path] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "underflows to 0" in err and f"dimension {d}" in err


@pytest.mark.parametrize("argv,d", [
    (["estimate", "--eps", "1e200"], 2),
    (["gof", "--eps", "1e200"], 2),
    (["keys", "--eps", "1e200", "--size", "2"], 2),
    (["estimate", "--eps", "1e300"], 1),  # the squared eps0 volume overflows
])
def test_radius_whose_ball_volume_overflows_is_a_clean_failure(tmp_path, capsys, argv, d):
    path = str(tmp_path / "sample.csv")
    write_sample_csv(SeriesSample(RngStream(502, 0).generator().normal(size=(6, d))), path)
    assert cli.main(argv[:1] + ["--input", path] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows at " in err and f"dimension {d}" in err


# two equal rows collide at every radius; where pi eps^2 is subnormal the
# plug-in q2_hat = count / (C(n,2) pi eps^2) overflows
_COLLIDING_2D = [[0.5, 1.5], [0.5, 1.5], [2.0, -1.0], [3.25, 0.75]]


@pytest.mark.parametrize("rows,argv,message", [
    (_COLLIDING_2D, ["keys", "--eps", "1e-160", "--size", "2"],
     "q2_hat overflows at radius 1e-160 in dimension 2: the ball volume is subnormal"),
    (_COLLIDING_2D, ["gof", "--eps", "1e-160"],
     "q2_hat overflows at radius 1e-160 in dimension 2: the ball volume is subnormal"),
    (_COLLIDING_2D, ["estimate", "--eps", "1e-160", "--eps0", "1"],
     "q2_hat overflows at radius 1e-160 in dimension 2: the ball volume is subnormal"),
    # q2_hat = 1/6 / (pi eps^2) is finite here, but w_hat divides it by the volume again
    (_COLLIDING_2D, ["estimate", "--eps", "1.8e-155", "--eps0", "1"],
     "estimates overflow at radius 1.8e-155 (eps0 1.0) in dimension 2"),
    # three equal values: u3_hat divides the triples by the subnormal (2 eps0)^2
    ([[0.0], [0.0], [0.0], [1.0], [2.0]], ["estimate", "--eps", "0.1", "--eps0", "1e-160"],
     "estimates overflow at radius 0.1 (eps0 1e-160) in dimension 1"),
])
def test_subnormal_ball_volume_is_a_clean_failure(tmp_path, capsys, rows, argv, message):
    path = str(tmp_path / "sample.csv")
    write_sample_csv(SeriesSample(rows), path)
    assert cli.main(argv[:1] + ["--input", path] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert "Infinity" not in out and "NaN" not in out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("scale,eps", [
    (1e-120, "1e-100"),  # the root determinant underflows to 0
    (1e-103, "1e-104"),  # it is subnormal, and the statistic overflows
])
def test_covariance_determinant_that_underflows_is_a_clean_failure(tmp_path, capsys, scale, eps):
    # every Cholesky diagonal passes the singularity check, but not their product
    path = str(tmp_path / "sample.csv")
    write_sample_csv(SeriesSample(np.random.default_rng(0).standard_normal((200, 3)) * scale), path)
    assert cli.main(["gof", "--input", path, "--eps", eps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: gof statistic overflows at radius {eps} in dimension 3: "
                   "the covariance determinant underflows\n")


def test_argparse_failures_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--eps", "0.1"])  # --input missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_is_installed():
    # The console script is checked from its declaration in pyproject.toml, so
    # the test also runs in a checkout that is on PYTHONPATH but not installed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"epsentropy": "epsentropy.cli:main"}

    # Call the entry point the way a console-script wrapper does, in a child
    # that imports the same epsentropy as this test.
    module, func = scripts["epsentropy"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    import_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    installed = shutil.which("epsentropy")
    if installed is not None:
        commands.append([installed, "--help"])
    names = ("estimate", "simulate", "gof", "keys", "generate", "discrete")
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: epsentropy")
        for name in names:
            assert name in proc.stdout
        # Help texts mention "estimates" and "simulate", so the substring check
        # alone misses a dropped subparser; the usage line's choices do not.
        choices = re.search(r"\{(.*?)\}", proc.stdout.splitlines()[0]).group(1)
        assert sorted(choices.split(",")) == sorted(names)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _run(argvs, capsys):
    outcomes = []
    for argv in argvs:
        code = cli.main(argv)
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def test_reused_parser_gives_the_bytes_of_a_fresh_one(tmp_path, capsys, monkeypatch, sample_csv,
                                                     table_csv, symbols_csv):
    plan, _ = _plan_file(tmp_path)
    argvs = [
        ["estimate", "--input", sample_csv[0], "--eps", "0.1", "--r", "2", "--ci", "sqrtn",
         "--exp-pivot"],
        ["simulate", "--plan", plan, "--seed", "5"],
        ["gof", "--input", sample_csv[0], "--eps", "0.25"],
        ["keys", "--input", table_csv[0], "--eps", "1.0", "--size", "2"],
        ["generate", "--family", "iid_uniform", "--params", '{"d": 2}', "--n", "30",
         "--output", str(tmp_path / "gen.csv")],
        ["discrete", "--input", symbols_csv[0], "--r", "1"],
    ]
    assert cli._parser() is cli._parser()
    reused = _run(argvs, capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _run(argvs, capsys)
    assert [code for code, _, _ in reused] == [0] * 6
    assert reused == fresh


def test_parser_survives_an_argparse_exit(sample_csv, capsys):
    argv = ["estimate", "--input", sample_csv[0], "--eps", "0.1"]
    assert cli.main(argv) == 0
    first = capsys.readouterr()
    for bad in (["estimate", "--eps", "0.1"], argv[:-1] + ["wide"], ["estimate"] + argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr() == first


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
