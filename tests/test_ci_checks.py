"""Checks the CI workflow once ran as inline steps.

"lft against the brute": each ``lftlab lft ... --brute`` call below exits 0
and prints ``"brute_check": "MATCH"`` on an instance document written to a
fresh directory.

"Simulator runs pickle across interpreters": this module, run as a script
(``python tests/test_ci_checks.py dump|load FILE``), pickles simulator runs,
1D results and 2D samples in one interpreter and loads and checks them in
another with another hash seed.

"Scripts that drive the public API": ``scripts/reproduce_examples.py``
prints the pinned worked-example tables below; the two sweep commands were
``TestCiSweepTally``'s argv, which ``tests/test_qlft_nd.py`` runs.

"README CLI block": every ``lftlab`` line of the README runs in a fresh
process, then twice through ``cli.main`` in one interpreter, and each
stdout equals its fresh one.

"Benchmark oracle smoke run", its input digests: each workload's
``perfbench/run.py --setup-probe`` at seed 1 and at the held-out seed 20061
prints the digest of the inputs the benchmark was calibrated on.
"""

import contextlib
import io
import json
import os
import pickle
import random
import runpy
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lftlab import fixtures
from lftlab.cli import main
from lftlab.grids import DualGrid
from lftlab.multi import _lift
from lftlab.qlft import run_qlft_1d_adaptive, run_qlft_1d_regular
from lftlab.qlft_nd import run_qlft_nd_regular
from lftlab.qstate import _schema
from lftlab.transform import discrete_gradients, lft_adaptive, lft_regular, regular_dual_grid

ROOT = Path(__file__).resolve().parents[1]

LFT_AGAINST_THE_BRUTE = {
    # 1D: the brute is the one-axis nD brute
    "quad512": (
        {"kind": "builtin", "name": "random-convex-quadratic", "params": {"n": 512}},
        ["--dual", "regular:512"],
    ),
    # ex3's samples, with dual points beyond its gradient range [0, 1]
    "ex3": (
        {
            "kind": "samples",
            "grid": [{"x0": "0", "gamma_x": "1/4", "n": 5}],
            "samples": ["0", "0", "1/8", "1/4", "1/2"],
        },
        ["--dual", "list:-2,-1/2,0,1/2,1,3/2,3", "--clamp"],
    ),
    "sum2d regular": (
        {"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 5}},
        ["--dual", "regular:4"],
    ),
    "sum2d adaptive": (
        {"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 5}},
        ["--dual", "adaptive"],
    ),
    # 3D: a coupled quadratic on a regular product, a separable sum at its
    # adaptive points
    "quad3d": (
        {"kind": "builtin", "name": "random-convex-quadratic", "params": {"seed": 4, "n": 4, "d": 3, "coupling": 1}},
        ["--dual", "regular:4"],
    ),
    "sum3d adaptive": (
        {"kind": "builtin", "name": "separable-sum", "params": {"d": 3, "n": 4}},
        ["--dual", "adaptive"],
    ),
    # its axis-1 pass leaves a discretely nonconvex axis-0 line
    "quad15": (
        {"kind": "builtin", "name": "random-convex-quadratic", "params": {"seed": 15, "n": 4, "d": 2, "coupling": 3}},
        ["--dual", "regular:4"],
    ),
    # every axis-1 line is concave: its canonical range is its envelope's
    "concave": (
        {
            "kind": "samples",
            "grid": [{"x0": "0", "gamma_x": "1", "n": 2}, {"x0": "0", "gamma_x": "1", "n": 3}],
            "samples": ["0", "5", "0", "0", "5", "0"],
        },
        ["--dual", "regular:3"],
    ),
}


@pytest.mark.parametrize("case", list(LFT_AGAINST_THE_BRUTE))
def test_lft_against_the_brute(case, tmp_path, capsys):
    doc, dual = LFT_AGAINST_THE_BRUTE[case]
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc))
    assert main(["lft", str(inst), *dual, "--brute"]) == 0
    assert '"brute_check": "MATCH"' in capsys.readouterr().out


# scripts/reproduce_examples.py at its default seed, one print per line
WORKED_EXAMPLES = """
ex1 (quadratic)
  samples                      1/2, 3/8, 3/8, 1/2, 3/4
  gradients                    -1/2, 0, 1/2, 1
  dual (regular)               -1/2, 0, 1/2, 1
  conjugate (regular)          -1/2, -3/8, -1/8, 1/4
  conjugate (brute)            -1/2, -3/8, -1/8, 1/4
  dual (adaptive centered)     -1/2, -1/4, 1/4, 3/4, 1
  conjugate (adaptive)         -1/2, -7/16, -1/4, 1/16, 1/4
  W / nu / success             1 / 3/2 / 4/5
  simulator                    attempts=2, p=4/5, values == classical
  analog omega                 15/32

ex2 (piecewise linear, W=1)
  samples                      0, 0, 1/16, 3/16, 3/8
  gradients                    0, 1/4, 1/2, 3/4
  dual (regular)               0, 3/16, 3/8, 9/16, 3/4
  conjugate (regular)          0, 3/64, 1/8, 15/64, 3/8
  conjugate (brute)            0, 3/64, 1/8, 15/64, 3/8
  dual (adaptive centered)     0, 1/8, 3/8, 5/8, 3/4
  conjugate (adaptive)         0, 1/32, 1/8, 9/32, 3/8
  W / nu / success             1 / 3/4 / 1
  simulator                    attempts=1, p=1, values == classical
  analog omega                 437/1440

ex3 (piecewise linear, W=2)
  samples                      0, 0, 1/8, 1/4, 1/2
  gradients                    0, 1/2, 1/2, 1
  dual (regular)               0, 1/4, 1/2, 3/4, 1
  conjugate (regular)          0, 1/16, 1/8, 5/16, 1/2
  conjugate (brute)            0, 1/16, 1/8, 5/16, 1/2
  dual (adaptive centered)     0, 1/4, 1/2, 3/4, 1
  conjugate (adaptive)         0, 1/16, 1/8, 5/16, 1/2
  W / nu / success             2 / 1 / 1/2
  simulator                    attempts=3, p=1/2, values == classical
  analog omega                 47/160

"""


def test_reproduce_examples_prints_the_worked_example_tables(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["reproduce_examples.py"])
    runpy.run_path(str(ROOT / "scripts" / "reproduce_examples.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 37
    assert out == WORKED_EXAMPLES


def _fresh(args, cwd, hash_seed=None):
    """Run ``args`` in a new interpreter on this checkout's sources; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, f"exit {proc.returncode}: {args}\n{proc.stderr}"
    return proc.stdout


def _runs():
    one = run_qlft_1d_regular(fixtures.ex3(), 5, rng_seed=7)
    adaptive = run_qlft_1d_adaptive(fixtures.ex1())
    two = run_qlft_nd_regular(fixtures.separable_sum(d=2, n=5), (5, 5), rng_seed=7)
    return one, adaptive, two


def _results():
    """(samples, adaptive variant or None for lft_regular, result): two
    adaptive variants, an explicit grid and a clamped regular grid, K > N."""
    f, q = fixtures.ex1(), fixtures.random_quadratic_spec(random.Random(5), 16)
    explicit = DualGrid.from_points([-2, Fraction(-1, 3), 0.25, 1, 3])
    g = discrete_gradients(q)
    wide = regular_dual_grid((g.lo - 1, g.hi + 1), 64)
    return [
        (f, "centered", lft_adaptive(f)),
        (f, "left", lft_adaptive(f, "left")),
        (f, None, lft_regular(f, explicit, clamp=True)),
        (q, None, lft_regular(q, wide, clamp=True)),
    ]


def _samples():
    return fixtures.random_convex_quadratic_nd(random.Random(3), 2, 4, 2)


def _load(path):
    """Loaded objects equal fresh ones, labels sit on interned schemas, each
    adaptive result is computed again from its loaded samples, and
    lft_regular on each loaded grid's rebuilt integer form gives the fresh
    result again. Exits with the first difference."""
    with open(path, "rb") as fh:
        loaded, got, tensor = pickle.load(fh)
    if tensor != _samples():
        sys.exit("loaded samples differ from fresh ones")
    if tensor.lifted != _lift(tensor.values.flat):
        sys.exit("the loaded samples' rebuilt lift differs from _lift")
    if run_qlft_nd_regular(tensor, (4, 4)) != run_qlft_nd_regular(_samples(), (4, 4)):
        sys.exit("run_qlft_nd_regular on loaded samples differs from a fresh run")
    if loaded != _runs():
        sys.exit("loaded runs differ from fresh runs")
    for (f, variant, res), (_, _, want) in zip(got, _results(), strict=True):
        if res != want:
            sys.exit("a loaded result differs from a fresh one")
        if variant and lft_adaptive(f, variant) != want:
            sys.exit("lft_adaptive on loaded samples differs from the fresh result")
        # every loaded grid, the adaptive ones too, through its rebuilt
        # ratios; the half-open rule gives the "left" points other
        # optimizer indices with the same values
        again = lft_regular(f, res.dual, clamp=True)
        if variant == "left":
            again, want = again.values, want.values
        if again != want:
            sys.exit("lft_regular on a loaded grid differs from the fresh result")
    for run in loaded:
        for lab, _ in run.final_state.entries:
            if lab.schema is not _schema(lab.schema.names, lab.schema.n_regs):
                sys.exit(f"label {lab} is not on its interned schema")
    print(sum(len(run.final_state) for run in loaded), "labels loaded on interned schemas")
    print(len(got), "results computed again from their loaded samples and grids")
    print("samples", tensor.grid.shape, "loaded with their lift rebuilt")


def test_simulator_runs_pickle_across_interpreters(tmp_path):
    path = str(tmp_path / "runs.pkl")
    assert _fresh([__file__, "dump", path], tmp_path, hash_seed=0) == ""
    out = _fresh([__file__, "load", path], tmp_path, hash_seed=1)
    assert out.splitlines() == [
        "35 labels loaded on interned schemas",
        "4 results computed again from their loaded samples and grids",
        "samples (4, 4) loaded with their lift rebuilt",
    ]


def test_readme_cli_block(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    lines = [shlex.split(line)[1:] for line in readme if line.startswith("lftlab ")]
    assert len(lines) >= 9
    # in order: later lines read the fixtures the first one writes
    fresh = [_fresh(["-m", "lftlab.cli", *args], tmp_path) for args in lines]
    # the same lines twice through one interpreter, so every call after the
    # first reuses main's parser: each stdout equals its fresh one
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        for args, want in zip(lines, fresh):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(args) == 0, args
            assert out.getvalue() == want, args
    # one seed gives one document in every fresh process, whatever the hash seed
    [trials] = [args for args in lines if "--trials" in args]
    docs = [_fresh(["-m", "lftlab.cli", *trials], tmp_path, hash_seed=h) for h in (0, 1)]
    assert docs[0] == docs[1]


BENCHMARK_INPUT_DIGESTS = {
    ("fast-1d", 1): "00cce24dee222ce7",
    ("sim-1d", 1): "10ae5028c4f96cf5",
    ("nd-verify", 1): "a7de653950b1a8b8",
    ("cli-small", 1): "f74001768de819ef",
    ("fast-1d", 20061): "40d61e958e53b84d",
    ("sim-1d", 20061): "707c58ba421f09d4",
    ("nd-verify", 20061): "651a8042cb236efa",
    ("cli-small", 20061): "e74052f0c3bbfd61",
}


@pytest.mark.parametrize("workload,seed", BENCHMARK_INPUT_DIGESTS)
def test_benchmark_inputs_keep_their_digest(workload, seed):
    probe = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--setup-probe"]
    assert json.loads(_fresh(probe, ROOT))["digest"] == BENCHMARK_INPUT_DIGESTS[workload, seed]


if __name__ == "__main__":
    mode, path = sys.argv[1:]
    if mode == "dump":
        with open(path, "wb") as fh:
            pickle.dump((_runs(), _results(), _samples()), fh, 4)
    else:
        _load(path)
