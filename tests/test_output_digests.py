"""Byte-identity of the CLI's output, pinned by SHA-256 digests.

Every subcommand runs in-process (cli.main) over a fixed corpus: estimate on
1-D and 2-D samples and on five adversarial 2-D samples (points exactly eps
apart, a 1e9 offset, duplicate rows, eps above the spread, a degenerate
column 0), gof, keys, discrete --truth, simulate on three families and
generate on every family.  The inputs are drawn here with numpy's own PCG64
and written with repr(), so no change to the package can change them.  Each
output (the JSON document, and the CSV that generate and simulate
--residuals-csv write) is hashed and compared with output_digests.json.

The digests were recorded under the numpy version stored beside them; a
failure under another numpy may come from numpy, not from the package.
Regenerate them, only for an intended change of output, with

    PYTHONPATH=src python tests/test_output_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from epsentropy import cli

DIGESTS = Path(__file__).with_name("output_digests.json")
SEEDS = (1, 2, 3)

GENERATE = {
    "gaussian_ma": {"theta": [0.6, 0.8]},
    "lognormal_ma": {"theta": [1.0, 0.5]},
    "cauchy_ratio": {},
    "copula_onedep": {"theta": 2.0, "marginal": "normal"},
    "pearson2": {"mu": [0.5, -1.0], "sigma": [[1.0, 0.3], [0.3, 2.0]]},
    "iid_uniform": {"d": 3},
}

# (spec, n, n_sim, eps, eps0, r, kind): gaussian_ma's 40 rows of 2002
# uniforms fill three stacks
SIMULATE = {
    "gaussian_ma": ({"family": "gaussian_ma", "params": {"theta": [0.6, 0.8]}},
                    2000, 40, 0.1, 0.12, 3, "h_sqrtn"),
    "lognormal_ma": ({"family": "lognormal_ma", "params": {"theta": [1.0, 0.5]}},
                     300, 30, 0.1, None, 2, "q_sqrtn"),
    "pearson2_2d": ({"family": "pearson2",
                     "params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.3], [0.3, 1.0]], "m": 2}},
                    150, 20, 0.3, 0.35, 2, "h_sqrtn"),
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _write(path: str, rows) -> str:
    rows = np.asarray(rows)
    rows = rows[:, None] if rows.ndim == 1 else rows
    with open(path, "w") as fh:
        fh.writelines(",".join(repr(v) for v in row.tolist()) + "\n" for row in rows)
    return path


def _adversarial(rng: np.random.Generator) -> dict:
    """name -> (a 2-D sample of a few hundred rows, its radius)."""
    z = rng.standard_normal((300, 2))
    return {
        # 300 distinct nodes of a quarter-step lattice: neighbours exactly eps apart
        "lattice": (0.25 * np.column_stack(np.divmod(rng.permutation(400)[:300], 20)), 0.25),
        "offset": (1e9 + 0.01 * z, 0.004),
        "duplicates": (z[rng.integers(0, 40, size=300)], 0.3),
        "wide_eps": (rng.random((300, 2)), 10.0),
        "degenerate": (np.column_stack((0.01 * z[:, 0], z[:, 1])), 0.05),
    }


def _corpus():
    """(name, argv, [files the call writes]) of every call, inputs written in cwd."""
    calls = []

    def call(name, argv, extra=()):
        out = f"{name}.json"
        calls.append((name, argv + ["--output", out], [out, *extra]))

    for seed in SEEDS:
        rng = _rng(seed)
        z = rng.standard_normal((401, 2))
        ma1 = _write(f"ma1d-{seed}.csv", 0.6 * z[1:, 0] + 0.8 * z[:-1, 0])
        ma2 = _write(f"ma2d-{seed}.csv", 0.6 * z[1:] + 0.8 * z[:-1])
        for tag, path, eps in (("1d", ma1, "0.05"), ("2d", ma2, "0.3")):
            for r in ("0", "4"):
                call(f"estimate-{tag}-r{r}-{seed}",
                     ["estimate", "--input", path, "--eps", eps, "--r", r, "--exp-pivot"])
        call(f"gof-{seed}", ["gof", "--input", ma2, "--eps", "0.3"])
        table = _write(f"table-{seed}.csv", rng.integers(0, 5, size=(200, 4)).astype(float))
        call(f"keys-size-{seed}", ["keys", "--input", table, "--eps", "0.9", "--size", "2"])
        call(f"keys-subsets-{seed}", ["keys", "--input", table, "--eps", "0.9",
                                      "--subsets", "0,1;3,0;2,1"])
        symbols = _write(f"symbols-{seed}.csv", rng.choice(5, size=(500, 2), p=[0.4, 0.25, 0.15, 0.1, 0.1]))
        call(f"discrete-{seed}", ["discrete", "--input", symbols, "--r", "2",
                                  "--truth", "0.3", "--kind", "q"])
        for family, params in GENERATE.items():
            csv_out = f"generate-{family}-{seed}.csv"
            calls.append((f"generate-{family}-{seed}",
                          ["generate", "--family", family, "--params", json.dumps(params),
                           "--n", "200", "--seed", str(seed), "--output", csv_out], [csv_out]))
        for family, (spec, n, n_sim, eps, eps0, r, kind) in SIMULATE.items():
            plan = f"plan-{family}.json"
            with open(plan, "w") as fh:
                json.dump({"spec": spec, "n": n, "n_sim": n_sim, "eps": eps, "eps0": eps0,
                           "r": r, "kind": kind}, fh)
            residuals = f"residuals-{family}-{seed}.csv"
            call(f"simulate-{family}-{seed}", ["simulate", "--plan", plan, "--seed", str(seed),
                                                "--residuals-csv", residuals], [residuals])
    for name, (points, eps) in _adversarial(_rng(2026)).items():
        path = _write(f"{name}.csv", points)
        # a zero minimum distance has no exp-pivot interval
        interval = "--ci=sqrtn" if name == "duplicates" else "--exp-pivot"
        call(f"estimate-{name}", ["estimate", "--input", path, "--eps", repr(eps), "--r", "4",
                                  interval])
    return calls


def _digests() -> dict:
    """name of every output -> SHA-256 of its bytes, from a run in cwd.

    An output is a file a call writes, or the document generate prints.
    """
    out = {}
    for name, argv, files in _corpus():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"{name}: exit code {code}")
        if stdout.getvalue():
            out[f"{name}.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for path in files:
            out[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


def test_cli_output_is_pinned(tmp_path, monkeypatch):
    pinned = json.loads(DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    got = _digests()
    changed = sorted(k for k in pinned["digests"] if got.get(k) != pinned["digests"][k])
    assert sorted(got) == sorted(pinned["digests"])
    assert changed == [], (
        f"{len(changed)} outputs changed (digests recorded under numpy {pinned['numpy']}, "
        f"this run has {np.__version__}): {changed}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            digests = _digests()
        finally:
            os.chdir(here)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests}, indent=1,
                                  sort_keys=True) + "\n")
