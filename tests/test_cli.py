import gc
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

from contextqm import cli
from contextqm.cli import main
from contextqm.reports import _csv_cell
from conftest import ChoiceSpy


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
        assert lines[0] == (
            "n,trials,expectation_residual,compression_residual,tracial_rank,ok"
        )
        assert lines[1].endswith(",true")

    @pytest.mark.parametrize("n", [3, 6])
    def test_one_eigensolve_per_functional(self, runner, eigensolves, n):
        # the 100 pure functionals and the tracial one eigensolve their single
        # block once each, and building their GNS spaces adds none; the other
        # 100 are the compression check's norm.  The 100 trials fit in one
        # stacked batch: one call solves every rho, one every compression
        # gap, and the tracial functional makes the third call
        result = runner.invoke(main, ["gns-check", "--n", str(n), "--trials", "100"])
        assert result.exit_code == 0
        assert sum(math.prod(shape[:-2]) for shape in eigensolves) == 201
        assert len(eigensolves) == 3
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
