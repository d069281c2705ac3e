"""The CLI contract on arbitrary input: exit code 0, 1 or 2, never a
traceback, and on failure a single diagnostic line on stderr."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from lftlab.cli import main
from lftlab.io import BUILTINS

RARELY = st.sampled_from([False] * 9 + [True])
RATIONAL = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "5/3", "2", "9", "1e400", "1/0", "x", ""])
VALUE = st.one_of(
    RATIONAL,
    st.integers(-9, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.just([]),
)


@st.composite
def samples_document(draw):
    shape = draw(st.lists(st.integers(-1, 5), min_size=1, max_size=3))
    grid = [
        {"x0": draw(RATIONAL), "gamma_x": draw(st.sampled_from(["1", "1/2", "0", "-1", "x"])), "n": n}
        for n in shape
    ]
    size = math.prod(max(n, 0) for n in shape)
    count = draw(st.sampled_from([size, size, max(size - 1, 0), size + 1]))
    if draw(st.booleans()):
        # a separable convex quadratic, so some documents reach the transforms
        values = [str(i * i) for i in range(count)]
    else:
        values = draw(st.lists(VALUE, min_size=count, max_size=count))
    return {"kind": "samples", "grid": grid, "samples": values}


@st.composite
def builtin_document(draw):
    odd = st.sampled_from([None, "x", [], "1/2"])
    params = {
        "n": draw(st.integers(-1, 5) | odd),
        "d": draw(st.integers(-1, 3) | odd),
        "z": draw(st.sampled_from(["", "0", "101", "0110", "2"]) | odd),
        "coupling": draw(st.integers(0, 3) | odd),
        "seed": draw(st.integers(0, 9)),
        "scale": draw(st.sampled_from(["1", "2^d", "1/0"]) | odd),
        "base": draw(st.sampled_from(["quadratic-ex1", "pwl-ex3", "nope"]) | odd),
    }
    params = {k: v for k, v in params.items() if draw(st.booleans())}
    if draw(RARELY):
        params = draw(st.sampled_from([[1], "x", 3]))
    return {"kind": "builtin", "name": draw(st.sampled_from(BUILTINS + ("nope",))), "params": params}


DOCUMENT = st.one_of(
    samples_document(),
    builtin_document(),
    st.sampled_from([[], 5, "x", {"kind": "weird"}, {"grid": []}, {"kind": "samples"}]),
)

K = st.integers(-1, 6).map(str)
LFT_DUAL = st.one_of(
    K.map(lambda k: f"regular:{k}"),
    st.tuples(K, K).map(lambda ks: f"regular:{ks[0]},{ks[1]}"),
    st.sampled_from(["adaptive:centered", "adaptive:right", "adaptive:left", "adaptive:x", "x", "regular:"]),
    st.lists(RATIONAL, max_size=4).map(lambda ps: "list:" + ",".join(ps)),
)


@st.composite
def arguments(draw):
    command = draw(st.sampled_from(["lft", "qlft", "rescale", "point-queries", "sampling"]))
    if command == "lft":
        argv = ["lft", "INSTANCE", "--dual", draw(LFT_DUAL)]
        argv += [flag for flag in ("--clamp", "--brute") if draw(st.booleans())]
    elif command == "qlft":
        argv = ["qlft", "INSTANCE", "--mode", draw(st.sampled_from(["regular", "adaptive"]))]
        argv += ["--trials", draw(st.integers(-1, 3).map(str))]
        if draw(st.booleans()):
            argv += ["--dual-size", draw(st.one_of(K, st.tuples(K, K).map(",".join)))]
        argv += [flag for flag in ("--strict-pow2", "--omega") if draw(st.booleans())]
    elif command == "rescale":
        argv = ["hardness", "rescale", "INSTANCE"]
        if draw(st.booleans()):
            argv += ["--k", draw(K)]
    else:
        argv = ["hardness", command, "--d", draw(st.integers(-1, 5).map(str))]
        argv += ["--z", draw(st.sampled_from(["", "0", "1", "10", "011", "0101", "2x"]))]
        if command == "sampling":
            argv += ["--t", draw(st.integers(-1, 4).map(str)), "--seed", "3"]
    if draw(st.booleans()):
        argv = ["--format", draw(st.sampled_from(["json", "csv", "csv", "xml"]))] + argv
    if draw(st.booleans()):
        argv += ["--precision", draw(st.integers(-1, 3).map(str))]
    if draw(RARELY):
        argv.append("--bogus")
    if draw(RARELY):
        argv += ["--out", "MISSING_DIR"]
    return argv


@settings(max_examples=150, deadline=None)
@given(doc=DOCUMENT, argv=arguments(), not_json=RARELY)
def test_every_input_exits_0_1_or_2_with_one_line_diagnostic(doc, argv, not_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json" if not_json else json.dumps(doc))
        paths = {"INSTANCE": path, "MISSING_DIR": os.path.join(tmp, "missing", "out.json")}
        argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    assert text.count("\n") <= 1
    assert (code == 0) == (text == ""), text


def test_a_dual_size_past_the_index_range_exits_1_with_one_line():
    # K = 10^20 is past sys.maxsize: regular_dual_grid, which every route
    # below passes through, rejects it before any point or label is built.
    # A K that fits an index but not memory would exhaust memory instead,
    # so none is tried.
    huge = "99999999999999999999"
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["fixtures", "emit", "--which", "ex1", "--out-dir", tmp]) == 0
        ex1, s2 = os.path.join(tmp, "ex1.json"), os.path.join(tmp, "s2.json")
        with open(s2, "w") as fh:
            json.dump({"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 5}}, fh)
        argvs = [
            ["lft", ex1, "--dual", f"regular:{huge}"],
            ["lft", s2, "--dual", f"regular:{huge}"],
            ["qlft", s2, "--mode", "regular", "--dual-size", f"{huge},2"],
            ["qlft", ex1, "--mode", "regular", "--dual-size", huge],
        ]
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            text = err.getvalue()
            assert code == 1, argv
            assert text.startswith("error: ") and text.count("\n") == 1, text


def _lft_builtin(name, params):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "builtin", "name": name, "params": params}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["lft", path, "--dual", "adaptive"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "name,params,bad",
    [
        ("random-convex-quadratic", {"n": 8.9}, "'n'"),
        ("random-convex-quadratic", {"seed": 3.99}, "'seed'"),
        ("random-convex-quadratic", {"n": True}, "'n'"),
        ("random-convex-quadratic", {"d": 2, "coupling": -1}, "'coupling' must be >= 0"),
        ("random-convex-quadratic", {"coupling": "1/2"}, "'coupling'"),
        ("separable-sum", {"d": 2.0}, "'d'"),
        ("quadratic-ex1", {"n": "5.0"}, "'n'"),
    ],
)
def test_a_builtin_integer_parameter_that_is_no_integer_exits_1(name, params, bad):
    code, out, err = _lft_builtin(name, params)
    assert (code, out) == (1, "")
    assert err.startswith("error: builtin parameter ") and bad in err and err.count("\n") == 1, err


def test_a_builtin_integer_parameter_may_be_an_integer_string():
    ints = {"n": 6, "d": 2, "seed": 3, "coupling": 2}
    assert _lft_builtin("random-convex-quadratic", {k: str(v) for k, v in ints.items()}) == _lft_builtin(
        "random-convex-quadratic", ints
    )
    assert _lft_builtin("random-convex-quadratic", ints)[0] == 0
