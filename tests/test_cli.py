import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from contextqm import cli, gns, oscillator
from contextqm.cli import main
from contextqm.reports import _csv_cell, render_json
from conftest import ChoiceSpy, perfect_matchings


@pytest.fixture
def runner():
    return CliRunner()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(text):
    """The report as standard JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _report(result):
    assert result.exit_code == 0, result.output
    return _strict_json(result.stdout)


def test_strict_json_refuses_non_finite_constants():
    for text in ('{"re": NaN}', '{"re": Infinity}', '{"re": -Infinity}'):
        with pytest.raises(ValueError, match="non-standard"):
            _strict_json(text)


def test_render_json_writes_numpy_values_as_their_python_twins():
    doc = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-3),
        "flag": np.bool_(True),
        "row": np.arange(3.0) / 3.0,
        "grid": np.eye(2, dtype=int),
    }
    plain = {
        "f64": 0.1,
        "f32": float(np.float32(0.1)),
        "i64": -3,
        "flag": True,
        "row": [0.0, 1.0 / 3.0, 2.0 / 3.0],
        "grid": [[1, 0], [0, 1]],
    }
    assert render_json(doc) == render_json(plain)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        render_json({"members": {1, 2}})


class TestSpinDemo:
    def test_default_angles_within_band(self, runner):
        report = _report(
            runner.invoke(main, ["spin-demo", "-n", "20000", "--seed", "3"])
        )
        assert report["schema_version"] == 1
        assert report["results"]["violations"] == 0
        assert len(report["results"]["angles"]) == 4
        for row in report["results"]["angles"]:
            gap = abs(
                row["empirical_frequency_plus"] - row["exact_probability_plus"]
            )
            assert gap <= 4 * row["standard_error"]
            assert row["within_band"] is True

    def test_zero_angle_is_deterministic(self, runner):
        report = _report(
            runner.invoke(
                main, ["spin-demo", "--theta", "0.0", "-n", "500", "--seed", "1"]
            )
        )
        row = report["results"]["angles"][0]
        assert row["empirical_frequency_plus"] == 1.0
        assert row["exact_probability_plus"] == 1.0

    def test_byte_identical_reports_for_same_seed(self, runner):
        args = ["spin-demo", "-n", "3000", "--seed", "11"]
        out1 = runner.invoke(main, args).stdout
        out2 = runner.invoke(main, args).stdout
        assert out1 == out2

    def test_seed_changes_samples(self, runner):
        base = ["spin-demo", "-n", "3000"]
        out1 = runner.invoke(main, base + ["--seed", "1"]).stdout
        out2 = runner.invoke(main, base + ["--seed", "2"]).stdout
        assert out1 != out2

    def test_env_var_seed(self, runner):
        direct = runner.invoke(main, ["spin-demo", "-n", "2000", "--seed", "77"])
        via_env = runner.invoke(
            main, ["spin-demo", "-n", "2000"], env={"CONTEXTQM_SEED": "77"}
        )
        assert direct.stdout == via_env.stdout

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["spin-demo", "-n", "1000", "--seed", "5", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        assert lines[0] == (
            "theta,exact_probability_plus,empirical_frequency_plus,standard_error,within_band"
        )
        assert len(lines) == 5  # header + four default angles

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["spin-demo", "-n", "1000", "--seed", "5", "--out", str(target)],
        )
        assert result.exit_code == 0
        report = _strict_json(target.read_text())
        assert report["parameters"]["samples"] == 1000

    def test_draws_without_choice(self, runner, monkeypatch):
        args = ["spin-demo", "-n", "2000", "--seed", "4"]
        expected = runner.invoke(main, args).stdout
        spies = []
        real_default_rng = np.random.default_rng

        def spying_default_rng(*a, **k):
            spies.append(ChoiceSpy(real_default_rng(*a, **k)))
            return spies[-1]

        monkeypatch.setattr(np.random, "default_rng", spying_default_rng)
        assert runner.invoke(main, args).stdout == expected
        assert len(spies) == 4 and sum(spy.choices for spy in spies) == 0

    @pytest.mark.parametrize("theta", ["3.141592653589793", "1e-9"], ids=["pi", "1e-9"])
    def test_a_run_without_minority_draws_passes(self, runner, theta):
        # the band is the spread of a frequency drawn from the law sampled,
        # so a minority outcome of weight 1e-32 or 2.5e-19 that is never
        # drawn does not fail the run, and no weight exceeds 1
        args = ["spin-demo", "--theta", theta, "-n", "1000", "--seed", "0"]
        row = _report(runner.invoke(main, args))["results"]["angles"][0]
        assert row["within_band"] is True
        assert 0.0 <= row["exact_probability_plus"] <= 1.0
        assert row["standard_error"] == math.sqrt(
            row["exact_probability_plus"] * (1 - row["exact_probability_plus"]) / 1000
        )

    @pytest.mark.parametrize("bias", [0.005, -0.005])
    def test_a_biased_sampler_fails_the_band(self, runner, monkeypatch, bias):
        real_count_draws = cli.count_draws

        def biased(probs, rng, size):
            return real_count_draws(probs + bias * np.array([1.0, -1.0]), rng, size)

        monkeypatch.setattr(cli, "count_draws", biased)
        result = runner.invoke(main, ["spin-demo", "-n", "100000", "--seed", "0"])
        assert result.exit_code == 1
        assert _strict_json(result.stdout)["results"]["violations"] >= 1


class TestKsSearch:
    def test_bundled_rays_are_unsatisfiable(self, runner):
        report = _report(runner.invoke(main, ["ks-search"]))
        results = report["results"]
        assert results["satisfiable"] is False
        assert results["exhausted"] is True
        assert results["assignment"] is None
        assert results["ray_count"] == 33
        assert results["triad_count"] == 16
        assert results["pair_count"] == 72
        assert results["nodes"] > 0

    def test_no_pair_rule_finds_assignment(self, runner):
        report = _report(runner.invoke(main, ["ks-search", "--no-pair-rule"]))
        results = report["results"]
        assert results["satisfiable"] is True
        assert len(results["assignment"]) == 33

    def test_custom_ray_file(self, runner, tmp_path):
        rays = tmp_path / "triad.csv"
        rays.write_text("1,0,0\n0,1,0\n0,0,1\n")
        report = _report(runner.invoke(main, ["ks-search", "--ray-file", str(rays)]))
        results = report["results"]
        assert results["satisfiable"] is True
        assert sorted(results["assignment"].values()) == [0, 1, 1]

    def test_malformed_ray_file_fails(self, runner, tmp_path):
        rays = tmp_path / "broken.csv"
        rays.write_text("1,0\n")
        result = runner.invoke(main, ["ks-search", "--ray-file", str(rays)])
        assert result.exit_code != 0

    @pytest.mark.parametrize("text", ["1,0\n", "1,0,0\nnan,0,1\n", "1,0,x\n"])
    def test_bad_ray_file_is_a_usage_error(self, runner, tmp_path, text):
        rays = tmp_path / "bad.csv"
        rays.write_text(text)
        result = runner.invoke(main, ["ks-search", "--ray-file", str(rays)])
        assert result.exit_code == 2
        assert "--ray-file" in result.output and "line" in result.output
        assert "Traceback" not in result.output

    def test_a_ray_file_without_a_triad_is_a_usage_error(self, runner, tmp_path):
        # it loads, but the search refuses it: exit 1 is kept for failed checks
        rays = tmp_path / "no-triad.csv"
        rays.write_text("1,0,0\n0,1,0\n1,1,1\n")
        result = runner.invoke(main, ["ks-search", "--ray-file", str(rays)])
        assert result.exit_code == 2
        assert "--ray-file" in result.output
        assert "no complete orthogonal triad" in result.output
        assert "Traceback" not in result.output

    def test_csv_format_summary_line(self, runner):
        goldens = [("--pair-rule", "UNSAT,28,33,16,72"), ("--no-pair-rule", "SAT,23,33,16,72")]
        for rule, summary in goldens:
            result = runner.invoke(main, ["ks-search", rule, "--format", "csv"])
            assert result.exit_code == 0
            lines = [l for l in result.stdout.splitlines() if not l.startswith("#")]
            assert lines[0] == "status,nodes,ray_count,triad_count,pair_count"
            assert lines[1] == summary

    def test_thousands_of_rays_are_searched_without_a_depth_limit(self, runner, tmp_path):
        rng = np.random.default_rng(1100)
        frames = [np.linalg.qr(rng.normal(size=(3, 3)))[0].T for _ in range(1100)]
        rays = tmp_path / "triads.csv"
        rows = [",".join(repr(x) for x in ray) for frame in frames for ray in frame.tolist()]
        rays.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["ks-search", "--ray-file", str(rays)])
        assert "Traceback" not in result.output
        results = _report(result)["results"]
        assert results["satisfiable"] is True
        assert (results["ray_count"], results["triad_count"]) == (3300, 1100)
        values = [results["assignment"][str(i)] for i in range(3300)]
        assert all(values[3 * t : 3 * t + 3].count(0) == 1 for t in range(1100))


class TestGreen:
    def test_equal_times_fourth_order(self, runner):
        report = _report(
            runner.invoke(main, ["green", "--n", "4", "--times", "0,0,0,0"])
        )
        results = report["results"]
        assert abs(results["wick"]["re"] - 0.75) <= 1e-12
        assert results["abs_difference"] <= 1e-8

    def test_odd_order_is_zero(self, runner):
        report = _report(runner.invoke(main, ["green", "--n", "3", "--seed", "2"]))
        assert report["results"]["wick"] == {"re": 0.0, "im": 0.0}

    def test_seeded_times_reproducible(self, runner):
        args = ["green", "--n", "6", "--seed", "9"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_times_count_mismatch_fails(self, runner):
        result = runner.invoke(main, ["green", "--n", "4", "--times", "0,1"])
        assert result.exit_code != 0

    def test_order_cap_enforced(self, runner):
        result = runner.invoke(main, ["green", "--n", "14"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "2", "--times", "a,b"],
            ["--n", "2", "--times", "nan,0"],
            ["--n", "2", "--omega", "inf"],
        ],
        ids=["unparsable-times", "nan-time", "infinite-omega"],
    )
    def test_bad_input_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["green", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [["--n", "2", "--times", "1e308,-1e308"], ["--n", "4", "--omega", "1e-300"]],
        ids=["nan-wick", "infinite-wick-nan-fock"],
    )
    def test_route_overflow_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["green", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "'--omega' / '--times'" in result.stderr and "overflows" in result.stderr
        assert "Traceback" not in result.output and "RuntimeWarning" not in result.stderr
        assert result.stdout == ""

    def test_routes_agree_on_random_times(self, runner):
        for seed in (1, 2, 3):
            report = _report(
                runner.invoke(
                    main,
                    ["green", "--n", "6", "--omega", "0.5", "--seed", str(seed)],
                )
            )
            assert report["results"]["abs_difference"] <= 1e-8

    @pytest.mark.parametrize(
        "args",
        [["--n", "10", "--omega", "0.05"], ["--n", "12", "--omega", "0.1"]],
        ids=["n10-omega0.05", "n12-omega0.1"],
    )
    def test_the_gate_scales_with_the_terms(self, runner, args):
        # G grows as (n-1)!! (2 omega)^(-n/2): these gaps are above 1e-8 but
        # within a few ulps of the terms' magnitude sum, and exited 1 under
        # an absolute gate
        result = runner.invoke(main, ["green", *args, "--seed", "3"])
        assert result.exit_code == 0
        results = _report(result)["results"]
        assert results["abs_difference"] > 1e-8
        scale = cli._pairing_magnitude(int(args[1]), float(args[3]))
        assert results["abs_difference"] <= 1e-14 * scale

    def test_the_gate_admits_the_phase_rounding_at_large_omega(self, runner):
        # at omega 1e8 the routes round their phases omega*t apart by up to
        # about n*u*omega*max|t| relative to the terms; a gate of 1e-8 of
        # the terms alone failed 62 of these 120 correct runs
        for order in range(2, oscillator.MAX_WICK_ORDER + 1, 2):
            for seed in range(20):
                args = ["green", "--n", str(order), "--omega", "1e8", "--seed", str(seed)]
                assert runner.invoke(main, args).exit_code == 0, args

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "10", "--omega", "0.05", "--seed", "3"],
            ["--n", "12", "--omega", "1000"],
            ["--n", "2", "--omega", "1e8"],
        ],
        ids=["large-terms", "small-terms", "large-omega"],
    )
    def test_a_perturbed_kernel_entry_fails_the_gate(self, runner, monkeypatch, args):
        # the pairing route alone sees the perturbed entry; at omega 1000 the
        # whole function is below 1e-15, so only a gate scaled to the terms
        # can see a disagreement there, and at omega 1e8 the phase term of
        # the gate still sits far below a 1e-3 error
        real_kernel = oscillator._kernel

        def perturbed(delta_t, omega):
            kernel = real_kernel(delta_t, omega)
            kernel[0, 1] *= 1.0 + 1e-3
            kernel[1, 0] *= 1.0 + 1e-3
            return kernel

        monkeypatch.setattr(oscillator, "_kernel", perturbed)
        result = runner.invoke(main, ["green", *args])
        assert result.exit_code == 1
        assert result.stdout

    def test_pairing_magnitude_is_the_hafnian_of_the_kernel_magnitudes(self):
        # |K_ij| = 1/(2 omega) for every pair, so each of the (n-1)!!
        # pairings contributes (2 omega)^(-n/2)
        for omega in (0.05, 1.0, 1000.0):
            for order in range(0, 13, 2):
                pairings = len(perfect_matchings(range(order)))
                expected = pairings * (2.0 * omega) ** (-order / 2)
                assert cli._pairing_magnitude(order, omega) == pytest.approx(expected, rel=1e-15)
            assert cli._pairing_magnitude(3, omega) == 1.0

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["green", "--n", "2", "--times", "0,0", "--format", "csv"]
        )
        lines = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        assert lines[0] == "times,wick_re,wick_im,fock_re,fock_im,abs_difference"
        assert lines[1].startswith("0.0;0.0,0.5,")


class TestGnsCheck:
    def test_default_run_is_healthy(self, runner):
        report = _report(runner.invoke(main, ["gns-check", "--trials", "40"]))
        results = report["results"]
        assert results["ok"] is True
        assert results["rank_ok"] is True
        assert results["pure_rank_expected"] == 3
        assert results["tracial_rank"] == 9
        assert results["expectation_residual"] <= 1e-10
        assert results["compression_residual"] <= 1e-10

    def test_ranks_scale_with_dimension(self, runner):
        report = _report(
            runner.invoke(main, ["gns-check", "--n", "4", "--trials", "10"])
        )
        assert report["results"]["pure_rank_expected"] == 4
        assert report["results"]["tracial_rank"] == 16

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["gns-check", "--trials", "10", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        assert len(lines) == 2
        assert lines[0] == (
            "n,trials,expectation_residual,compression_residual,tracial_rank,ok"
        )
        assert lines[1].endswith(",true")

    @pytest.mark.parametrize("n", [3, 6])
    def test_one_eigensolve_per_functional(self, runner, eigensolves, n):
        # the 100 pure functionals and the tracial one eigensolve their single
        # block once each, and building their GNS spaces adds none; the other
        # 100 are the compression check's norm.  Each stacked batch of trials
        # makes one call for its rho and one for its compression gaps, and
        # the tracial functional makes one more
        result = runner.invoke(main, ["gns-check", "--n", str(n), "--trials", "100"])
        assert result.exit_code == 0
        assert sum(math.prod(shape[:-2]) for shape in eigensolves) == 201
        batches = math.ceil(100 / gns._batch_size(gns.COMPRESSION_SAMPLES, n))
        assert len(eigensolves) == 2 * batches + 1
        assert {shape[-2:] for shape in eigensolves} == {(n, n)}

    def test_dimension_range_enforced(self, runner):
        result = runner.invoke(main, ["gns-check", "--n", "9"])
        assert result.exit_code != 0

    def test_tracial_residuals_gate_the_exit_code(self, runner, monkeypatch):
        real_verify = cli.verify_gns

        def off_by_a_micro(space, samples, rng):
            return {**real_verify(space, samples, rng), "homomorphism_residual": 1e-6}

        monkeypatch.setattr(cli, "verify_gns", off_by_a_micro)
        result = runner.invoke(main, ["gns-check", "--trials", "5"])
        assert result.exit_code == 1
        results = _strict_json(result.stdout)["results"]
        assert results["ok"] is False
        assert results["tracial_summary"]["homomorphism_residual"] == 1e-6


# Each subcommand's parameters in order, and the sha256 of its --help page
# at a fixed terminal width (so COLUMNS cannot move it): the command's own
# options come first, then --seed, --out and --format.
HELP_PAGES = {
    "spin-demo": (
        ["thetas", "sample_count", "seed", "out", "fmt"],
        "907b926162a312686149ef22d907ed1004b05319d134f735b474618b9971da1c",
    ),
    "ks-search": (
        ["ray_file", "pair_rule", "seed", "out", "fmt"],
        "d1eb3a09e382a135e73709512f801718af9ff597e067efbc7b11e97f978d13cc",
    ),
    "green": (
        ["order", "omega", "times", "seed", "out", "fmt"],
        "817a772e41edaec48d23a9ab0927b04bff4a2153dba037cea366f5f08dd08868",
    ),
    "gns-check": (
        ["dimension", "trials", "seed", "out", "fmt"],
        "f33e4e611c78e5fd09a3dad77472d202f1425a258cf99603ba8caf4fb872824e",
    ),
}


class TestHelpPages:
    def test_every_subcommand_is_pinned(self):
        assert sorted(main.commands) == sorted(HELP_PAGES)

    @pytest.mark.parametrize("command", sorted(HELP_PAGES))
    def test_parameters_keep_their_order(self, command):
        assert [p.name for p in main.commands[command].params] == HELP_PAGES[command][0]

    @pytest.mark.parametrize("command", sorted(HELP_PAGES))
    def test_help_page_is_pinned(self, runner, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        result = runner.invoke(main, [command, "--help"], terminal_width=80)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == HELP_PAGES[command][1], result.stdout


class TestReportEnvelope:
    def test_reports_carry_invocation_metadata(self, runner):
        for args in (
            ["spin-demo", "-n", "1000"],
            ["ks-search"],
            ["green", "--n", "2"],
            ["gns-check", "--trials", "5"],
        ):
            report = _report(runner.invoke(main, args))
            assert report["schema_version"] == 1
            assert report["seed"] == 0
            assert report["command"] == args[0]
            assert "parameters" in report and "results" in report

    def test_wall_time_goes_to_stderr_only(self, runner):
        result = runner.invoke(main, ["ks-search"])
        assert "wall_time" in result.stderr
        assert "wall_time" not in result.stdout

    def test_in_process_invocations_release_their_streams(self, runner):
        # Each CliRunner invocation swaps in fresh stdout/stderr wrappers;
        # writing the stderr notes must not keep them alive afterwards.
        def live_text_streams():
            gc.collect()
            return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

        args = ["gns-check", "--trials", "0"]
        runner.invoke(main, args)
        before = live_text_streams()
        for _ in range(20):
            assert "vacuous" in runner.invoke(main, args).stderr
        assert live_text_streams() <= before

    def test_csv_preamble_comments_carry_metadata(self, runner):
        result = runner.invoke(main, ["ks-search", "--format", "csv"])
        comments = [l for l in result.stdout.splitlines() if l.startswith("#")]
        joined = "\n".join(comments)
        assert "command: ks-search" in joined
        assert "schema_version: 1" in joined


class TestOutFile:
    @pytest.mark.parametrize(
        "args",
        [
            ["spin-demo", "-n", "100"],
            ["ks-search"],
            ["green", "--n", "2"],
            ["gns-check", "--trials", "2"],
        ],
        ids=["spin-demo", "ks-search", "green", "gns-check"],
    )
    def test_missing_directory_is_one_error_line(self, runner, tmp_path, args):
        target = tmp_path / "missing" / "report.json"
        result = runner.invoke(main, [*args, "--out", str(target)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: Could not open file '{target}': No such file or directory"]
        assert "Traceback" not in result.output
        assert result.stdout == "" and not target.parent.exists()


class TestSeedOption:
    @pytest.mark.parametrize(
        "args",
        [["spin-demo", "--seed", "-1"], ["gns-check", "--seed", "-2"], ["green", "--seed", "-1"]],
        ids=["spin-demo", "gns-check", "green"],
    )
    def test_negative_seed_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "--seed" in result.stderr
        assert result.stdout == ""

    def test_negative_env_seed_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["ks-search"], env={"CONTEXTQM_SEED": "-3"})
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""


class TestIntegerRanges:
    @pytest.mark.parametrize(
        "args",
        [
            ["spin-demo", "-n", "0"],
            ["spin-demo", "-n", str(cli.MAX_SAMPLES + 1)],
            ["spin-demo", "--theta", "nan"],
            ["spin-demo", "--theta", "7"],
            ["gns-check", "--trials", "-1"],
            ["gns-check", "--trials", str(cli.MAX_TRIALS + 1)],
        ],
        ids=[
            "no-samples",
            "samples-above-cap",
            "nan-theta",
            "theta-above-2pi",
            "negative-trials",
            "trials-above-cap",
        ],
    )
    def test_out_of_range_is_a_usage_error_before_any_work(self, runner, monkeypatch, args):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started work")

        monkeypatch.setattr(cli, "count_draws", no_work)
        monkeypatch.setattr(cli, "pure_state_trials", no_work)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""


# sha256 of stdout at --seed 0 and --seed 1 for the benchmark's seven CLI
# invocations and three CSV variants; each exits 0.  A report's bytes are
# fixed by its command, seed and parameters, so a refactor that moves them
# fails here, and a change meant to move them retakes the hashes.  They hold
# for one numpy/BLAS build; another build may move eigensolver roundoff, and
# then they are retaken from the unchanged parent commit.
PINNED_REPORTS = {
    "spin-demo": (
        "973366537227260b46687bc9f1a8d464f8c72467e7507c9862d5047aa5ce2a8b",
        "dea9af9d9818bd3c39be761300e903daebae9f514010c6c551ff113b1bb17435",
    ),
    "ks-search": (
        "7221ec586d14cf2b9e01c6a1ac7917a48a647df7ec14b5f7e0be555a0154419d",
        "f52b4991a265a2182f7235cf94ac7476c84040d0c03ac2ac866b568437fcc140",
    ),
    "ks-search --no-pair-rule": (
        "97806690eec9efcdb32f0bc8a9f5f64e124395a9b4a4f17ae32abaf91e1e7554",
        "bc81f9a50c25534d8512a5b4f3c202c32980d4c0cb6f3a5c624a65fa2d3407d0",
    ),
    "green --n 12": (
        "b9b55b4bda37f8e20cea7433f0dc938760eef4c44c60d742b5d307cb20041ea0",
        "42bb9fbc539d3cbf5174c17b7556d046032113d26c97522a12f1f7db2c3177ba",
    ),
    "green --n 10": (
        "06670b76cfd84b5605075c4957c60d807ecff364ad85cdb9f63f5fc1d33a42b9",
        "dac27a25e6c0b79565f0eca79d50d4d635984644d89bc568a0b8ab234119fa45",
    ),
    "gns-check": (
        "eade634d719a8942c77703ed8e250cccb36c06d8dd7c4ae63c2609ca390dbf46",
        "719eabd8d78869b268c2fffc2d8373cd4291f1f168b873581a80ff0d7fceb66a",
    ),
    "gns-check --n 6": (
        "c2d3f7930237ca87bd0d6eba859a7737403cb2a9524968dc937646d3150f2179",
        "773e293b04c6abedf2b3f0f8022bc859fb057efaa943b99ef92a299b0b58df50",
    ),
    "ks-search --format csv": (
        "242c782a74869a2364a378f61b303afb3ef0b27d951d4e123181548470e6ab27",
        "df4906514b4c4ee07eafbcffd577c30808746b94702b564a4d1545ae3da1005f",
    ),
    "green --n 6 --format csv": (
        "fc17213e3ef72da95f99272f41c8d3f2dbe78ea5fc6b71819f8e17b4f96b66db",
        "ee58a14855ded6af64f3eddedc55a2b942b43eff3569252c572b710b17e9d4da",
    ),
    "gns-check --n 4 --format csv": (
        "d98244dc23406d3320656525bc467b40d4343bb660bb0352bb9ca871ea80fb10",
        "72ed408ff59d6702b9e0cdc7790e8423eaa0e514386aba05f850ddf285dfeabb",
    ),
}


@pytest.mark.parametrize("invocation", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(runner, invocation):
    for seed, expected in enumerate(PINNED_REPORTS[invocation]):
        result = runner.invoke(main, [*invocation.split(), "--seed", str(seed)])
        assert result.exit_code == 0, (seed, result.output)
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == expected, seed


def _json_field(column, results, parameters):
    """The JSON value a CSV column of a single-row report carries."""
    if column == "status":
        return "SAT" if results["satisfiable"] else "UNSAT"
    if column == "times":
        return ";".join(repr(t) for t in parameters["times"])
    if column in results:
        return results[column]
    if column in parameters:
        return parameters[column]
    route, part = column.rsplit("_", 1)  # wick_re -> results["wick"]["re"]
    return results[route][part]


class TestCsvMatchesJson:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "args",
        [
            ["spin-demo", "-n", "2000"],
            ["ks-search"],
            ["ks-search", "--no-pair-rule"],
            ["green", "--n", "6"],
            ["gns-check", "--trials", "10"],
        ],
        ids=["spin-demo", "ks-search", "ks-search-no-pair-rule", "green", "gns-check"],
    )
    def test_each_cell_equals_its_json_field(self, runner, args, seed):
        args = [*args, "--seed", str(seed)]
        doc = _report(runner.invoke(main, args))
        result = runner.invoke(main, [*args, "--format", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        header, cells = lines[0].split(","), [line.split(",") for line in lines[1:]]
        results, parameters = doc["results"], doc["parameters"]
        if args[0] == "spin-demo":
            expected = [[row[c] for c in header] for row in results["angles"]]
        else:
            expected = [[_json_field(c, results, parameters) for c in header]]
        assert cells == [[_csv_cell(value) for value in row] for row in expected]


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args):
    """A fresh interpreter with ``src`` on PYTHONPATH, as a user would start it."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


class TestAsAProcess:
    def test_no_import_of_the_package_or_the_cli_loads_scipy(self):
        code = (
            "import sys\n"
            "import contextqm, contextqm.cli, contextqm.oscillator, contextqm.gns, contextqm.ensembles\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        child = _run_python("-c", code)
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout.decode().strip() == "[]"

    @pytest.mark.parametrize(
        "args",
        [["ks-search", "--seed", "0"], ["green", "--n", "4", "--seed", "0"]],
        ids=["ks-search", "green"],
    )
    def test_console_entry_prints_what_the_in_process_command_prints(self, args):
        child = _run_python("-m", "contextqm.cli", *args)
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout == CliRunner().invoke(main, args).stdout_bytes
