"""Command-line checks of the CI workflow, run in-process.

"lft against the brute": each ``lftlab lft ... --brute`` call below exits 0
and prints ``"brute_check": "MATCH"`` on an instance document written to a
fresh directory.
"""

import json

import pytest

from lftlab.cli import main

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
