import contextlib
import io
import json
import os
import random
from fractions import Fraction as F

import pytest

from lftlab import fixtures, multi
from lftlab.cli import build_parser, main
from lftlab.errors import NonConvexSlice
from lftlab.io import (
    ParseError,
    dump_document,
    load_instance,
    parse_instance,
    serialize_instance,
    with_decimals,
)
from lftlab.multi import TensorSamples
from lftlab.qlft import geometric_attempts, run_qlft_1d_regular
from lftlab.qlft_nd import run_qlft_nd_adaptive, run_qlft_nd_regular


class TestInstanceDocuments:
    def test_round_trip_1d(self, ex1):
        doc = serialize_instance(ex1)
        again = parse_instance(doc)
        assert again == ex1
        assert serialize_instance(again) == doc

    def test_round_trip_tensor(self):
        t = fixtures.separable_sum("pwl-ex2", d=2, n=4)
        doc = serialize_instance(t)
        again = parse_instance(doc)
        assert again == t

    def test_rationals_as_pq_strings(self, ex1):
        doc = serialize_instance(ex1)
        assert doc["samples"][0] == "1/2"
        assert doc["grid"][0]["gamma_x"] == "1/4"

    def test_builtin_quadratic(self):
        inst = parse_instance({"kind": "builtin", "name": "quadratic-ex1", "params": {}})
        assert inst == fixtures.ex1()

    def test_builtin_hypercube(self):
        inst = parse_instance(
            {"kind": "builtin", "name": "hypercube-z", "params": {"z": "101", "scale": "2^d"}}
        )
        assert isinstance(inst, TensorSamples)
        assert inst.values.get((1, 0, 1)) == 0
        assert inst.values.get((0, 0, 0)) == 8

    def test_builtin_random_deterministic(self):
        doc = {"kind": "builtin", "name": "random-convex-quadratic", "params": {"seed": 4, "n": 6}}
        assert parse_instance(doc) == parse_instance(doc)

    def test_bad_documents_raise_parse_error(self):
        for doc in (
            {},
            {"kind": "mystery"},
            {"kind": "samples", "grid": []},
            {"kind": "samples", "grid": [{"x0": "0", "gamma_x": "1/2", "n": 3}], "samples": ["x"]},
            {"kind": "builtin", "name": "nope"},
            {"kind": "builtin", "name": "hypercube-z", "params": {"z": "12"}},
        ):
            with pytest.raises(ParseError):
                parse_instance(doc)


class TestCli:
    @pytest.fixture
    def fixture_dir(self, tmp_path):
        out = tmp_path / "fx"
        assert main(["fixtures", "emit", "--which", "all", "--plot-data", "--out-dir", str(out)]) == 0
        return out

    def test_fixture_files_regenerate_byte_identical(self, fixture_dir, tmp_path):
        other = tmp_path / "fx2"
        assert main(["fixtures", "emit", "--which", "all", "--plot-data", "--out-dir", str(other)]) == 0
        for name in os.listdir(fixture_dir):
            a = (fixture_dir / name).read_bytes()
            b = (other / name).read_bytes()
            assert a == b, name

    def test_lft_ex1(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(["--out", str(out), "lft", str(fixture_dir / "ex1.json"), "--dual", "regular:4", "--brute"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["values"] == ["-1/2", "-3/8", "-1/8", "1/4"]
        assert doc["brute_check"] == "MATCH"

    def test_lft_ex2_adaptive(self, fixture_dir, tmp_path):
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "lft", str(fixture_dir / "ex2.json"), "--dual", "adaptive:centered"]) == 0
        doc = json.loads(out.read_text())
        assert doc["values"] == ["0", "1/32", "1/8", "9/32", "3/8"]

    def test_lft_constant_degenerate(self, tmp_path):
        inst = tmp_path / "constant.json"
        inst.write_text(dump_document(serialize_instance(fixtures.constant(F(1, 3), n=4))))
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "lft", str(inst), "--dual", "regular:2"]) == 0
        doc = json.loads(out.read_text())
        assert doc["values"] == ["-1/3", "-1/3"]

    def test_lft_nonconvex_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "bad.json"
        inst.write_text(
            json.dumps(
                {
                    "kind": "samples",
                    "grid": [{"x0": "0", "gamma_x": "1/2", "n": 3}],
                    "samples": ["0", "1", "0"],
                }
            )
        )
        assert main(["lft", str(inst), "--dual", "regular:3"]) == 2
        assert "nonconvex" in capsys.readouterr().err

    def test_lft_nd_regular_exact_past_a_nonconvex_intermediate_line(self, tmp_path):
        params = {"seed": 15, "n": 4, "d": 2, "coupling": 3}
        doc = {"kind": "builtin", "name": "random-convex-quadratic", "params": params}
        f = parse_instance(doc)
        # the axis-1 pass leaves the axis-0 line at (1,) discretely nonconvex
        g = multi.axis_transform(f.values, 1, f.grid.axes[1], multi.canonical_nd_dual_grids(f, (4, 4))[1])
        with pytest.raises(NonConvexSlice, match=r"axis 0 line at \(1,\)"):
            list(multi._lines(g.shape, multi._lift(g.flat)[0], 0, check_convex=True))
        inst, out = tmp_path / "quad15.json", tmp_path / "res.json"
        inst.write_text(json.dumps(doc))
        assert main(["--out", str(out), "lft", str(inst), "--dual", "regular:4", "--brute"]) == 0
        assert json.loads(out.read_text())["brute_check"] == "MATCH"

    def test_lft_nd_regular_canonical_range_on_a_concave_axis(self, tmp_path):
        # every axis-1 line is 0 5 0: its first difference exceeds its last,
        # so only the envelope's slopes give the pass an ordered range
        grid = [{"x0": "0", "gamma_x": "1", "n": n} for n in (2, 3)]
        doc = {"kind": "samples", "grid": grid, "samples": ["0", "5", "0", "0", "5", "0"]}
        inst, out = tmp_path / "concave.json", tmp_path / "res.json"
        inst.write_text(json.dumps(doc))
        assert main(["--out", str(out), "lft", str(inst), "--dual", "regular:3", "--brute"]) == 0
        assert json.loads(out.read_text())["brute_check"] == "MATCH"

    def test_parse_error_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["lft", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _rejects(argv, code, capsys):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @staticmethod
    def _samples(path, n, samples):
        grid = [{"x0": "0", "gamma_x": "1", "n": n}]
        path.write_text(json.dumps({"kind": "samples", "grid": grid, "samples": samples}))
        return str(path)

    def test_degenerate_grid_exit_2(self, tmp_path, capsys):
        inst = self._samples(tmp_path / "two.json", 2, ["0", "1"])
        self._rejects(["lft", inst], 2, capsys)

    def test_out_of_range_dual_exit_2(self, fixture_dir, capsys):
        ex1 = str(fixture_dir / "ex1.json")
        self._rejects(["lft", ex1, "--dual", "list:-1,0,1/2,2"], 2, capsys)

    def test_invalid_k_exit_2(self, fixture_dir, capsys):
        self._rejects(["lft", str(fixture_dir / "ex1.json"), "--dual", "regular:1"], 2, capsys)

    def test_sample_count_mismatch_exit_1(self, tmp_path, capsys):
        inst = self._samples(tmp_path / "short.json", 3, ["0", "1"])
        self._rejects(["lft", inst], 1, capsys)

    def test_rescale_affine_exit_2(self, tmp_path, capsys):
        inst = self._samples(tmp_path / "affine.json", 3, ["0", "1", "2"])
        self._rejects(["hardness", "rescale", inst], 2, capsys)

    @pytest.mark.parametrize("command", [["qlft"], ["lft", "--brute"]])
    def test_brute_cap_exit_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(multi, "MAX_BRUTE_POINTS", 10)
        inst = tmp_path / "sep.json"
        inst.write_text(
            json.dumps({"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 4}})
        )
        self._rejects([command[0], str(inst), *command[1:]], 2, capsys)

    def test_1d_brute_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # one cap at every d: a 1D brute check is the one-axis nD brute
        monkeypatch.setattr(multi, "MAX_BRUTE_POINTS", 10)
        inst = self._samples(tmp_path / "eleven.json", 11, [str(i * i) for i in range(11)])
        assert main(["lft", inst, "--brute"]) == 2
        assert capsys.readouterr().err == "error: brute force capped at 10 primal points\n"

    def test_qlft_ex3_acceptance(self, fixture_dir, tmp_path):
        out = tmp_path / "res.json"
        code = main(
            [
                "--out", str(out),
                "qlft", str(fixture_dir / "ex3.json"),
                "--mode", "regular", "--dual-size", "5",
                "--seed", "7", "--trials", "4000",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["success_probability"] == "1/2"
        assert doc["verification"] == "MATCH"
        assert abs(doc["empirical_acceptance"] - 0.5) <= 0.024  # 3 sigma at 4000
        assert doc["step_trace"][2]["acceptance"] == "1/2"

    def test_qlft_adaptive_always_one_attempt(self, fixture_dir, tmp_path):
        out = tmp_path / "res.json"
        assert main(
            ["--out", str(out), "qlft", str(fixture_dir / "ex1.json"), "--mode", "adaptive", "--trials", "10"]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["mean_attempts"] == 1.0
        assert doc["verification"] == "MATCH"

    def test_qlft_strict_pow2_exit_2(self, fixture_dir, capsys):
        assert main(["qlft", str(fixture_dir / "ex3.json"), "--strict-pow2"]) == 2

    def test_qlft_malformed_dual_size_exit_1(self, fixture_dir, capsys):
        assert main(["qlft", str(fixture_dir / "ex3.json"), "--dual-size", "4,4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_qlft_omega(self, fixture_dir, tmp_path):
        out = tmp_path / "res.json"
        assert main(
            ["--out", str(out), "qlft", str(fixture_dir / "ex1.json"),
             "--dual-size", "4", "--seed", "1", "--omega"]
        ) == 0
        assert json.loads(out.read_text())["omega"] == "15/32"

    def test_qlft_omega_nd_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "sep.json"
        inst.write_text(
            json.dumps({"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 4}})
        )
        self._rejects(["qlft", str(inst), "--omega"], 1, capsys)

    @staticmethod
    def _builtin(path, name):
        params = {"d": 2, "n": 4} if name == "separable-sum" else {}
        path.write_text(json.dumps({"kind": "builtin", "name": name, "params": params}))
        return str(path)

    @pytest.mark.parametrize("builtin, sizes", [("pwl-ex3", "5"), ("separable-sum", "4,4")])
    def test_qlft_adaptive_rejects_dual_size(self, tmp_path, capsys, builtin, sizes):
        inst = self._builtin(tmp_path / "inst.json", builtin)
        assert main(["qlft", inst, "--mode", "adaptive", "--dual-size", sizes]) == 1
        assert capsys.readouterr().err == "error: --dual-size needs --mode regular\n"

    @pytest.mark.parametrize(
        "builtin, dual, message",
        [
            ("separable-sum", "regular:4", "--clamp needs a one-dimensional instance"),
            ("separable-sum", "adaptive", "--clamp needs a one-dimensional instance"),
            ("quadratic-ex1", "adaptive:centered", "--clamp needs a regular or list dual"),
            ("quadratic-ex1", "adaptive:right", "--clamp needs a regular or list dual"),
        ],
    )
    def test_lft_clamp_rejected_where_it_does_nothing(self, tmp_path, capsys, builtin, dual, message):
        inst = self._builtin(tmp_path / "inst.json", builtin)
        assert main(["lft", inst, "--dual", dual, "--clamp"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "dual, message",
        [
            ("adaptive:right", "--dual adaptive:right needs a one-dimensional instance"),
            ("adaptive:left", "--dual adaptive:left needs a one-dimensional instance"),
            ("adaptive:bogus", "unknown adaptive variant 'bogus'"),
        ],
        ids=["right", "left", "bogus"],
    )
    def test_lft_nd_takes_only_the_centered_adaptive_dual(self, tmp_path, capsys, dual, message):
        inst = self._builtin(tmp_path / "inst.json", "separable-sum")
        assert main(["lft", inst, "--dual", dual]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "builtin, argv, message",
        [
            ("pwl-ex3", ["qlft", "--dual-size", "4,4"], "--dual-size needs an integer K, got '4,4'"),
            ("pwl-ex3", ["lft", "--dual", "regular:x"], "--dual regular needs an integer K, got 'x'"),
            (
                "separable-sum",
                ["qlft", "--dual-size", ",4"],
                "--dual-size needs an integer K or 2 comma-separated integers, got ',4'",
            ),
            (
                "separable-sum",
                ["lft", "--dual", "regular:4,x"],
                "--dual regular needs an integer K or 2 comma-separated integers, got '4,x'",
            ),
            (
                "separable-sum",
                ["qlft", "--dual-size", "4,4,4"],
                "--dual-size needs an integer K or 2 comma-separated integers, got '4,4,4'",
            ),
        ],
        ids=["1d-qlft", "1d-lft", "2d-qlft-empty", "2d-lft-not-int", "2d-qlft-count"],
    )
    def test_malformed_sizes_name_their_flag(self, tmp_path, capsys, builtin, argv, message):
        inst = self._builtin(tmp_path / "inst.json", builtin)
        assert main([argv[0], inst, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_lft_clamp_pins_regular_and_list_duals(self, tmp_path, capsys):
        inst = self._builtin(tmp_path / "inst.json", "quadratic-ex1")
        assert main(["lft", inst, "--dual", "list:-100,0", "--clamp"]) == 0
        assert json.loads(capsys.readouterr().out)["optimizer_index"] == [0, 1]
        assert main(["lft", inst, "--dual", "regular:4", "--clamp"]) == 0
        self._rejects(["lft", inst, "--dual", "list:-100,0"], 2, capsys)

    @pytest.mark.parametrize(
        "builtin, argv",
        [
            ("pwl-ex3", ["--dual-size", "5", "--seed", "7", "--trials", "500"]),
            ("separable-sum", ["--dual-size", "4,4", "--seed", "3", "--trials", "300"]),
            ("separable-sum", ["--dual-size", "3,3", "--seed", "3", "--trials", "300"]),
        ],
    )
    def test_qlft_retry_statistics_are_the_seeded_draws(self, tmp_path, builtin, argv):
        # mean_attempts and empirical_acceptance come from the same trials,
        # drawn in turn from one random.Random(seed)
        inst = self._builtin(tmp_path / "inst.json", builtin)
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "qlft", inst, *argv]) == 0
        doc = json.loads(out.read_text())
        p, seed, trials = F(doc["success_probability"]), doc["seed"], doc["trials"]
        rng = random.Random(seed)
        attempts = [geometric_attempts(p, rng) for _ in range(trials)]
        assert doc["empirical_acceptance"] == attempts.count(1) / trials
        assert doc["mean_attempts"] == sum(attempts) / trials

    @pytest.mark.parametrize("builtin, sizes", [("pwl-ex3", "5"), ("separable-sum", "3,3")])
    def test_qlft_one_trial_is_the_runs_draw(self, tmp_path, builtin, sizes):
        inst = self._builtin(tmp_path / "inst.json", builtin)
        instance = load_instance(inst)
        out = tmp_path / "res.json"
        for seed in range(8):
            argv = ["--out", str(out), "qlft", inst, "--dual-size", sizes, "--seed", str(seed)]
            assert main(argv) == 0
            doc = json.loads(out.read_text())
            if builtin == "pwl-ex3":
                run = run_qlft_1d_regular(instance, 5, rng_seed=seed)
            else:
                run = run_qlft_nd_regular(instance, ks=(3, 3), rng_seed=seed)
            assert 0 < run.success_probability < 1
            assert doc["mean_attempts"] == run.attempts

    @pytest.mark.parametrize(
        "builtin, argv, rate",
        [
            ("quadratic-ex1", ["--mode", "adaptive"], 1.0),
            ("separable-sum", ["--dual-size", "4,4"], 1.0),  # p = 1: nothing to draw
            ("separable-sum", ["--dual-size", "2,2"], 0.0),  # a pass rejects every branch
        ],
    )
    def test_qlft_huge_trials_report_without_a_list(self, tmp_path, builtin, argv, rate):
        inst = self._builtin(tmp_path / "inst.json", builtin)
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "qlft", inst, *argv, "--trials", str(10**12)]) == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 10**12
        assert doc["mean_attempts"] == doc["empirical_acceptance"] == rate

    def test_qlft_2d_separable_verification(self, tmp_path):
        inst = tmp_path / "sep.json"
        inst.write_text(
            json.dumps({"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 4}})
        )
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "qlft", str(inst), "--dual-size", "4,4", "--seed", "3"]) == 0
        doc = json.loads(out.read_text())
        assert doc["verification"] == "MATCH"
        assert doc["pass_acceptances"] == ["1", "1"]
        assert [r["norm"] for r in doc["step_trace"]] == ["1"] * 4

    @pytest.mark.parametrize(
        "doc, status",
        [
            ({"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 4}}, "MATCH"),
            # max(2, 1 - 2x + 2y) on [0, 1]^2: two labels fall below the brute
            (
                {
                    "kind": "samples",
                    "grid": [{"x0": "0", "gamma_x": "1/2", "n": 3}] * 2,
                    "samples": ["2", "2", "3", "2", "2", "2", "2", "2", "2"],
                },
                "MISMATCH",
            ),
        ],
        ids=["separable", "nonconvex-intermediate"],
    )
    def test_qlft_nd_adaptive_reports_the_runs_verification(self, tmp_path, doc, status):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "qlft", str(inst), "--mode", "adaptive"]) == 0
        got = json.loads(out.read_text())
        report = run_qlft_nd_adaptive(load_instance(str(inst))).verification
        assert report.status == status
        assert [got["verification"], got["verification_missing"], got["verification_value_mismatches"]] == [
            report.status,
            len(report.missing),
            len(report.value_mismatches),
        ]

    def test_lft_tensor_adaptive_route(self, tmp_path):
        inst = tmp_path / "sep.json"
        inst.write_text(
            json.dumps({"kind": "builtin", "name": "separable-sum", "params": {"d": 2, "n": 4}})
        )
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "lft", str(inst), "--dual", "adaptive", "--brute"]) == 0
        doc = json.loads(out.read_text())
        assert doc["brute_check"] == "MATCH"
        assert doc["shape"] == [4, 4]

    def test_hardness_point_queries(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "hardness", "point-queries", "--d", "3", "--z", "101"]) == 0
        doc = json.loads(out.read_text())
        assert doc["recovered"] == "101"
        assert doc["queries"] == 24

    def test_hardness_sampling(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(
            ["--out", str(out), "hardness", "sampling", "--d", "4", "--t", "6", "--seed", "7", "--z", "1011"]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["success"] is True
        assert doc["recovered"] == "1011"
        assert doc["equations"] == 10

    def test_hardness_sampling_negative_t_exit_1(self, capsys):
        self._rejects(["hardness", "sampling", "--d", "4", "--t", "-10"], 1, capsys)
        assert main(["hardness", "sampling", "--d", "4", "--t", "0"]) == 0

    def test_hardness_rescale(self, fixture_dir, tmp_path):
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "hardness", "rescale", str(fixture_dir / "ex3.json")]) == 0
        doc = json.loads(out.read_text())
        assert (doc["w"], doc["w_rescaled"], doc["mapping"]) == (2, 2, "exact")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_rescale_dual_size_below_2_exit_2(self, fixture_dir, capsys, k):
        self._rejects(["hardness", "rescale", str(fixture_dir / "ex3.json"), "--k", k], 2, capsys)

    def test_hardness_dimension_cap_exit_2(self, capsys):
        assert main(["hardness", "point-queries", "--d", "17", "--z", "1" * 17]) == 2

    def test_identical_invocations_byte_identical(self, fixture_dir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["qlft", str(fixture_dir / "ex3.json"), "--dual-size", "5", "--seed", "11", "--trials", "100"]
        assert main(["--out", str(out1)] + argv) == 0
        assert main(["--out", str(out2)] + argv) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shared_parser_leaks_nothing_between_calls(self, fixture_dir, tmp_path):
        ex1, out = str(fixture_dir / "ex1.json"), str(tmp_path / "res.out")
        bad = self._samples(tmp_path / "bad.json", 3, ["0", "1", "0"])
        lft = ["lft", ex1, "--dual", "regular:4"]
        pq = ["hardness", "point-queries", "--d", "3", "--z", "101"]
        calls = [
            ["lft"],  # usage error, exit 1
            ["--help"],
            [*lft, "--precision", "3"],
            lft,
            ["--format", "csv", *lft],
            lft,
            ["--out", out, *pq],
            [*pq, "--out", out],
            pq,
            ["lft", bad],  # nonconvex, exit 2
            lft,
        ]

        def run(argv):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            written = None
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    written = fh.read()
                os.remove(out)
            return code, stdout.getvalue(), stderr.getvalue(), written

        build_parser.cache_clear()
        shared = [run(argv) for argv in calls]
        assert build_parser.cache_info().currsize == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert [r[0] for r in shared] == [1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
        assert shared == fresh

    def test_env_seed_default(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("LFTLAB_SEED", "123")
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "qlft", str(fixture_dir / "ex3.json"), "--dual-size", "5"]) == 0
        assert json.loads(out.read_text())["seed"] == 123

    def test_csv_format(self, fixture_dir, capsys):
        assert main(["--format", "csv", "lft", str(fixture_dir / "ex1.json"), "--dual", "regular:4"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("command,lft")

    def test_precision_flag_adds_decimals(self, fixture_dir, tmp_path):
        out = tmp_path / "res.json"
        assert main(
            ["--out", str(out), "--precision", "4", "lft", str(fixture_dir / "ex1.json"), "--dual", "regular:4"]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["values_decimal"] == ["-0.5000", "-0.3750", "-0.1250", "0.2500"]
        assert doc["values"] == ["-1/2", "-3/8", "-1/8", "1/4"]  # exact kept

    @staticmethod
    def _decimals(values, precision):
        """The exact "p/q" strings rendered, lists element by element."""
        if isinstance(values, list):
            return [TestCli._decimals(v, precision) for v in values]
        return f"{float(F(values)):.{precision}f}"

    def test_precision_renders_nd_dual_points(self, tmp_path):
        inst = self._builtin(tmp_path / "sep.json", "separable-sum")
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "--precision", "3", "lft", inst, "--dual", "regular:3"]) == 0
        doc = json.loads(out.read_text())
        assert doc["dual_points_decimal"] == self._decimals(doc["dual_points"], 3)
        assert doc["dual_points"][1] == ["-5/12", "1/4"]
        assert doc["dual_points_decimal"][1] == ["-0.417", "0.250"]
        assert doc["values_decimal"] == self._decimals(doc["values"], 3)

    def test_precision_renders_qlft_probabilities(self, tmp_path, fixture_dir):
        out = tmp_path / "res.json"
        ex3 = str(fixture_dir / "ex3.json")
        assert main(["--out", str(out), "--precision", "2", "qlft", ex3, "--dual-size", "5"]) == 0
        doc = json.loads(out.read_text())
        assert doc["success_probability"] == "1/2"
        assert doc["success_probability_decimal"] == "0.50"
        assert "pass_acceptances_decimal" not in doc  # 1D runs report no per-pass list
        params = {"d": 2, "n": 4, "coupling": 2, "seed": 1}
        inst = tmp_path / "coupled.json"
        inst.write_text(json.dumps({"kind": "builtin", "name": "random-convex-quadratic", "params": params}))
        assert main(["--out", str(out), "--precision", "4", "qlft", str(inst), "--seed", "1"]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass_acceptances_decimal"] == self._decimals(doc["pass_acceptances"], 4)
        assert doc["success_probability_decimal"] == self._decimals(doc["success_probability"], 4)
        assert doc["pass_acceptances_decimal"] == ["0.3125", "0.4500"]

    def test_precision_renders_values_past_the_float_range(self, tmp_path):
        inst = self._samples(tmp_path / "big.json", 3, ["1e400", "0", "1e400"])
        out = tmp_path / "res.json"
        assert main(["--out", str(out), "lft", inst, "--dual", "regular:3", "--precision", "2"]) == 0
        doc = json.loads(out.read_text())
        big = "1" + "0" * 400
        assert doc["values"] == [f"-{big}", "0", big]
        assert doc["values_decimal"] == [f"-{big}.00", "0.00", f"{big}.00"]

    def test_precision_rounds_the_exact_value_half_to_even(self):
        # 31/200 = 0.155 exactly; the nearest float lies below it
        doc = with_decimals({"v": ["31/200", "1/8", "-1/1000", "5/2"]}, ("v",), 2)
        assert doc["v_decimal"] == ["0.16", "0.12", "-0.00", "2.50"]
        assert with_decimals({"v": ["5/2", "7/2"]}, ("v",), 0)["v_decimal"] == ["2", "4"]

    @pytest.mark.parametrize("command", [["lft", "EX1"], ["hardness", "point-queries", "--d", "2", "--z", "01"]])
    def test_negative_precision_exit_1(self, fixture_dir, capsys, command):
        # also where the document has no field to render
        argv = [str(fixture_dir / "ex1.json") if a == "EX1" else a for a in command]
        self._rejects(["--precision", "-1", *argv], 1, capsys)

    def test_plot_csv_ex1_row_at_zero(self, fixture_dir):
        text = (fixture_dir / "ex1_conjugate.csv").read_text()
        assert "0,-3/8,-23/64" in text

    def test_transcript_is_line_delimited(self, fixture_dir, tmp_path):
        log = tmp_path / "run.jsonl"
        assert main(
            ["qlft", str(fixture_dir / "ex3.json"), "--dual-size", "5",
             "--seed", "5", "--transcript", str(log)]
        ) == 0
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert [r["step"] for r in records] == [
            "superposition", "gradients", "postselect", "conjugate",
        ]
        assert all(r["norm"] == "1" for r in records)
        assert records[2]["acceptance"] == "1/2"

    def test_plot_csv_ex3_right_duals_available(self, fixture_dir):
        # adaptive-right duals for ex3 through the lft surface
        out = fixture_dir / "ex3_right.json"
        assert main(
            ["--out", str(out), "lft", str(fixture_dir / "ex3.json"), "--dual", "adaptive:right"]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["dual"] == ["0", "1/2", "1/2", "1", "1"]
