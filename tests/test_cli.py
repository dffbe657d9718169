import gc
import io
import json

import pytest
from click.testing import CliRunner

from contextqm import cli
from contextqm.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _report(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


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
        assert lines[0].startswith("theta,")
        assert len(lines) == 5  # header + four default angles

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["spin-demo", "-n", "1000", "--seed", "5", "--out", str(target)],
        )
        assert result.exit_code == 0
        report = json.loads(target.read_text())
        assert report["parameters"]["samples"] == 1000


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

    def test_csv_format_summary_line(self, runner):
        result = runner.invoke(main, ["ks-search", "--format", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        assert lines[0] == "status,nodes,ray_count,triad_count,pair_count"
        assert lines[1] == "UNSAT,28,33,16,72"


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
            ["--n", "4", "--cutoff", "3"],
            ["--n", "2", "--times", "nan,0"],
            ["--n", "2", "--omega", "inf"],
        ],
        ids=["unparsable-times", "cutoff-too-small", "nan-time", "infinite-omega"],
    )
    def test_bad_input_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["green", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""

    def test_cutoff_above_the_cap_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["green", "--n", "2", "--cutoff", "513"])
        assert result.exit_code == 2
        assert "exceeds the cap 512" in result.output
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
        assert lines[0].startswith("n,trials,")
        assert lines[1].endswith(",true")

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
        results = json.loads(result.stdout)["results"]
        assert results["ok"] is False
        assert results["tracial_summary"]["homomorphism_residual"] == 1e-6


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
