import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epsentropy
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
    assert doc["intervals"][2] == exp_pivot_ci(ref.n, ref.d, ref.min_distance, level=0.9).to_dict()


def test_estimate_exp_pivot_counts_the_sample_once(sample_csv, capsys, monkeypatch):
    # the interval reads the report's minimum; a second count would raise
    argv = ["estimate", "--input", sample_csv[0], "--eps", "0.05", "--r", "2", "--ci", "sqrtn",
            "--exp-pivot"]
    assert cli.main(argv) == 0
    once = capsys.readouterr()

    def recount(*_):
        raise AssertionError("the sample was counted twice")

    monkeypatch.setattr("epsentropy.paircount._min_sq_distance", recount)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == once


_NOT_FINITE = r"pivot interval is not finite at minimum distance {} in dimension {}"


@pytest.mark.parametrize("rows,eps,message", [
    # y**d overflows
    ([[1e10 * i] + [0.0] * 31 for i in range(6)], "1", _NOT_FINITE.format(r"1\d+\.0", 32)),
    # y**d underflows to 0
    ([[1e-150 * i, 0.0, 0.0] for i in range(6)], "0.5", _NOT_FINITE.format(r"\S+e-15\d", 3)),
    # the upper bound overflows
    ([[1e-105 * i, 0.0, 0.0] for i in range(6)], "1e10", _NOT_FINITE.format(r"\S+e-10\d", 3)),
    # the squared minimum underflows to 0
    ([[1e-200 * i] for i in range(6)], "0.5",
     re.escape("minimum distance is zero (duplicate rows, or a squared distance below the "
               "smallest float); pivot degenerate")),
])
def test_exp_pivot_arithmetic_failure_is_a_clean_failure(tmp_path, capsys, rows, eps, message):
    path = str(tmp_path / "sample.csv")
    write_sample_csv(SeriesSample(rows), path)
    assert cli.main(["estimate", "--input", path, "--eps", eps, "--exp-pivot"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err)


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


_GOOD_PLAN = {"spec": {"family": "iid_uniform", "params": {"d": 1}}, "n": 40, "n_sim": 3,
              "eps": 0.05, "kind": "q_sqrtn"}


@pytest.mark.parametrize("doc,field", [
    ([_GOOD_PLAN], "plan must be an object"),
    ("plan", "plan must be an object"),
    (dict(_GOOD_PLAN, spec=3), "'spec'"),
    (dict(_GOOD_PLAN, spec={"family": "iid_uniform", "params": 7}), "'params'"),
    (dict(_GOOD_PLAN, spec={"family": "iid_uniform", "params": {"d": [2]}}), "'iid_uniform'"),
    (dict(_GOOD_PLAN, spec={"family": "copula_onedep", "params": {"theta": None}}),
     "'copula_onedep'"),
    (dict(_GOOD_PLAN, n=[500]), "'n'"),
    (dict(_GOOD_PLAN, eps=None), "'eps'"),
    (dict(_GOOD_PLAN, n=500.9), "'n'"),
    (dict(_GOOD_PLAN, n=500.0), "'n'"),
    (dict(_GOOD_PLAN, n_sim=5.9), "'n_sim'"),
    (dict(_GOOD_PLAN, r=2.5), "'r'"),
    (dict(_GOOD_PLAN, n=True), "'n'"),
    (dict(_GOOD_PLAN, eps=True), "'eps'"),
    (dict(_GOOD_PLAN, eps0="0.1"), "'eps0'"),
    (dict(_GOOD_PLAN, base_seed=7.5), "'base_seed'"),
    ({k: v for k, v in _GOOD_PLAN.items() if k != "n_sim"}, "'n_sim'"),
    (dict(_GOOD_PLAN, eps=10**400), "'eps'"),
    (dict(_GOOD_PLAN, eps0=10**400), "'eps0'"),
])
def test_simulate_rejects_plans_that_are_not_plan_objects(tmp_path, capsys, doc, field):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["simulate", "--plan", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


def test_seed_override_does_not_touch_a_plan_that_is_not_an_object(tmp_path, capsys):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        json.dump([_GOOD_PLAN], fh)
    assert cli.main(["simulate", "--plan", path, "--seed", "5"]) == 1
    assert capsys.readouterr().err == "error: plan must be an object, got list\n"


def test_simulate_reads_integral_counts_and_any_json_number_for_eps(tmp_path, capsys):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        json.dump(dict(_GOOD_PLAN, eps=1, eps0=None, r=0), fh)
    assert cli.main(["simulate", "--plan", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["plan"]["eps"] == 1.0 and doc["plan"]["n"] == 40


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


_PEARSON2 = {"mu": [0.0], "sigma": [[1.0]]}


@pytest.mark.parametrize("family,params,field", [
    ("iid_uniform", {"d": 2.5}, "'d'"),
    ("iid_uniform", {"d": 2.0}, "'d'"),
    ("iid_uniform", {"d": True}, "'d'"),
    ("iid_uniform", {"d": "3"}, "'d'"),
    ("iid_uniform", {"d": None}, "'d'"),
    ("pearson2", dict(_PEARSON2, m=2.5), "'m'"),
    ("pearson2", dict(_PEARSON2, m=True), "'m'"),
    ("pearson2", dict(_PEARSON2, m="2"), "'m'"),
])
@pytest.mark.parametrize("via", ["generate", "simulate"])
def test_integer_spec_params_are_not_truncated(tmp_path, capsys, family, params, field, via):
    if via == "generate":
        argv = ["generate", "--family", family, "--params", json.dumps(params), "--n", "20",
                "--output", str(tmp_path / "gen.csv")]
    else:
        path = str(tmp_path / "plan.json")
        with open(path, "w") as fh:
            json.dump(dict(_GOOD_PLAN, spec={"family": family, "params": params}), fh)
        argv = ["simulate", "--plan", path]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "gen.csv").exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{family!r}" in err and field in err and "must be an integer" in err


def test_spec_params_are_not_parsed_from_strings(tmp_path, capsys):
    csv_out = tmp_path / "gen.csv"
    assert cli.main(["generate", "--family", "copula_onedep", "--params", '{"theta": "2.5"}',
                     "--n", "20", "--output", str(csv_out)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not csv_out.exists()
    assert err == ("error: family 'copula_onedep' spec param 'theta' must be a number, "
                   'got "2.5"\n')


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
    ref = discrete_residual(discrete_report(DiscreteSample(symbols), 1), 0.25, "q")
    assert doc["residual"] == json.loads(json.dumps(ref))
    assert doc["run"]["truth"] == 0.25 and doc["run"]["kind"] == "q"


@pytest.mark.parametrize("kind", ["q", "h"])
def test_discrete_truth_counts_the_sample_once(symbols_csv, capsys, monkeypatch, kind):
    calls = []

    def counted(*args):
        calls.append(args)
        return discrete_report(*args)

    # the handler reads this name at call time, and so would a residual that
    # built its own report
    monkeypatch.setattr("epsentropy.discrete.discrete_report", counted)
    assert cli.main(["discrete", "--input", symbols_csv[0], "--r", "1",
                     "--truth", "0.25", "--kind", kind]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("truth", ["nan", "inf", "-inf", "1e308"])
def test_discrete_non_finite_residual_is_a_clean_failure(symbols_csv, capsys, truth):
    assert cli.main(["discrete", "--input", symbols_csv[0], "--r", "1",
                     f"--truth={truth}", "--kind", "q"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def _child_env():
    """The environment of a child that imports the same epsentropy as this test."""
    import_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


@pytest.mark.parametrize("argv,names", [
    (["generate", "--family", "gaussian_ma", "--params", '{"theta": [1e308, 1e308]}'],
     "theta [1e+308, 1e+308]"),  # the norm overflows
    (["generate", "--family", "lognormal_ma", "--params", '{"theta": [60]}'],
     "theta [60.0]"),  # exp(sigma^2 / 4) overflows
    (["generate", "--family", "gaussian_ma", "--params", '{"theta": [1e-200]}'],
     "theta [1e-200]"),  # the norm underflows to 0
    (["simulate", "--plan", "PLAN"], "theta [60.0]"),
    (["gof", "--input", "CSV", "--eps", "1"], "sample covariance overflows in dimension 1"),
])
def test_spec_or_covariance_out_of_float_range_is_one_error_line(tmp_path, argv, names):
    # a child process, so that a numpy warning would show on its stderr
    plan = str(tmp_path / "plan.json")
    with open(plan, "w") as fh:
        json.dump(dict(_GOOD_PLAN, spec={"family": "lognormal_ma", "params": {"theta": [60]}}), fh)
    csv = str(tmp_path / "sample.csv")
    write_sample_csv(SeriesSample([[v] for v in (0.0, 1e300, 2e300) for _ in range(3)]), csv)
    argv = [{"PLAN": plan, "CSV": csv}.get(arg, arg) for arg in argv]
    if argv[0] == "generate":
        argv += ["--n", "10", "--output", str(tmp_path / "gen.csv")]
    proc = subprocess.run([sys.executable, "-m", "epsentropy.cli", *argv], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert names in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "gen.csv").exists()


@pytest.mark.parametrize("scale", [1e250, 1e-250])
def test_pearson2_sigma_out_of_float_range_is_one_error_line(tmp_path, scale):
    # the root of the determinant overflows to inf or underflows to 0, so
    # q2 = 1 / (k_d(d) det(sigma)^(1/2)) would be 0 or 1 / 0
    sigma = (np.eye(3) * scale).tolist()
    out = tmp_path / "gen.csv"
    argv = ["generate", "--family", "pearson2", "--params", json.dumps({"mu": [0, 0, 0], "sigma": sigma}),
            "--n", "10", "--output", str(out)]
    proc = subprocess.run([sys.executable, "-m", "epsentropy.cli", *argv], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: pearson2 sigma {sigma} is out of range: the marginal's "
                           "q2 = 1 / (k_d(d) det(sigma)^(1/2)) overflows or underflows\n")
    assert not out.exists()


def test_refused_allocation_is_one_error_line(tmp_path):
    # 2^45 rows need 256 TiB, more than the x86-64 user address space, so the
    # allocation is refused under any overcommit mode and nothing is allocated
    out = tmp_path / "gen.csv"
    argv = ["generate", "--family", "gaussian_ma", "--params", '{"theta": [1]}',
            "--n", str(2**45), "--output", str(out)]
    proc = subprocess.run([sys.executable, "-m", "epsentropy.cli", *argv], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate ") and proc.stderr.count("\n") == 1
    assert not out.exists()


_CHILD_PRELUDE = """import json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("epsentropy."))
"""


def _child_json(tmp_path, code):
    """Run code in a fresh interpreter; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_PRELUDE + code], capture_output=True,
                          text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("subcommand,added", [
    ("estimate", []),
    ("simulate", ["montecarlo", "processes"]),
    ("gof", ["gof"]),
    ("keys", ["epskeys"]),
    ("generate", ["processes"]),
    ("discrete", ["discrete"]),
])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, sample_csv, table_csv, symbols_csv,
                                                   subcommand, added):
    # a fresh interpreter, since this process has long imported every module
    out = str(tmp_path / "out.json")
    argv = {
        "estimate": ["--input", sample_csv[0], "--eps", "0.1", "--r", "2", "--ci", "neps",
                     "--exp-pivot", "--output", out],
        "simulate": ["--plan", _plan_file(tmp_path)[0], "--output", out],
        "gof": ["--input", sample_csv[0], "--eps", "0.25", "--output", out],
        "keys": ["--input", table_csv[0], "--eps", "1.0", "--size", "2", "--output", out],
        "generate": ["--family", "iid_uniform", "--n", "30", "--output", str(tmp_path / "g.csv")],
        "discrete": ["--input", symbols_csv[0], "--r", "1", "--truth", "0.3", "--kind", "h",
                     "--output", out],
    }[subcommand]
    before, random, code, after = _child_json(tmp_path, f"""
import epsentropy.cli
before = loaded()
random = "numpy.random" in sys.modules
code = epsentropy.cli.main({[subcommand, *argv]!r})
print(json.dumps([before, random, code, loaded()]))
""")
    cli_path = ["asymptotics", "cli", "core", "estimators", "paircount"]
    assert before == cli_path
    # core seeds streams through numpy.random, imported on first use only
    assert not random
    assert code == 0
    assert after == sorted(cli_path + added)


def test_package_reaches_each_submodule_on_first_access(tmp_path):
    names = sorted(m.name for m in pkgutil.iter_modules(epsentropy.__path__))
    before, reached, missing = _child_json(tmp_path, f"""
import epsentropy
before = loaded()
reached = [getattr(epsentropy, name).__name__ for name in {names!r}]
try:
    epsentropy.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, reached, missing]))
""")
    assert before == []
    assert reached == [f"epsentropy.{name}" for name in names]
    assert missing == "module 'epsentropy' has no attribute 'nope'"


def _strict(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_every_subcommand_prints_standard_json(tmp_path, capsys, sample_csv, table_csv,
                                                 symbols_csv):
    plan, _ = _plan_file(tmp_path)
    argvs = [
        ["estimate", "--input", sample_csv[0], "--eps", "0.1", "--r", "2", "--ci", "neps",
         "--exp-pivot"],
        ["simulate", "--plan", plan],
        ["gof", "--input", sample_csv[0], "--eps", "0.25"],
        ["keys", "--input", table_csv[0], "--eps", "1.0", "--size", "2"],
        ["generate", "--family", "iid_uniform", "--n", "30", "--output", str(tmp_path / "g.csv")],
        ["discrete", "--input", symbols_csv[0], "--r", "1", "--truth", "0.3", "--kind", "h"],
    ]
    for argv in argvs:
        assert cli.main(argv) == 0
        json.loads(capsys.readouterr().out, parse_constant=_strict)


def test_emit_refuses_non_finite_numbers(capsys):
    with pytest.raises(ValueError):
        cli._emit({"x": float("nan")}, None)
    assert capsys.readouterr().out == ""


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
    env = _child_env()
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
