"""Command-line plumbing: exit codes, artifact shapes, determinism."""

import argparse
import ast
import functools
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mixnorm
from mixnorm import cli, inequalities
from mixnorm.cli import main
from mixnorm.grids import SPACE, GridSpec, SampledFunction
from mixnorm.inequalities import (
    INEQUALITIES,
    RatioReport,
    check_hausdorff_young,
    check_restriction,
    check_variant,
)
from mixnorm.sampling import gaussian_product, random_ensemble
from mixnorm.sweeps import SweepReport, blowup_sweep

BECKNER_43 = 0.936687074375248

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)
GAUSSIAN2 = gaussian_product(GRID2, [1.0, 1.0])
GAUSSIAN1 = gaussian_product(GRID1, [1.0])


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_peak(tmp_path, inequality, trials):
    """The tracemalloc peak of one ``verify`` run writing its artifact. The
    cyclic collector is off during the run, so the peak does not depend on
    when it would have run (the argparse parsers form cycles)."""
    argv = ["verify", inequality, "--trials", str(trials), "--out", str(tmp_path / "a")]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


class TestConstants:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, ["constants", "--r", "4/3", "2"])
        assert code == 0
        assert f"{BECKNER_43:.15f}" in out
        assert "1.000000000000000" in out

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, ["constants", "--r", "4/3", "--dim", "1", "2", "--format", "json"]
        )
        assert code == 0
        row = json.loads(out.splitlines()[1])
        assert row["r"] == "4/3"
        assert row["conjugate"] == "4"
        assert row["C_r"] == pytest.approx(BECKNER_43, abs=1e-15)
        assert row["C_r^2"] == pytest.approx(BECKNER_43**2, abs=1e-15)

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, ["constants", "--r", "2", "--dim", "1", "3", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[1] == "r,conjugate,C_r,C_r^1,C_r^3"

    def test_json_echoes_the_resolved_config(self, capsys):
        code, out, _ = run(capsys, ["constants", "--r", "1.5", "1", "--format", "json"])
        assert code == 0
        assert out.splitlines()[0] == (
            '{"config": {"dim": [1], "format": "json", "out": null, "r": ["3/2", "1"]}}'
        )

    def test_csv_echoes_the_resolved_config(self, tmp_path):
        out = tmp_path / "constants.csv"
        argv = ["constants", "--r", "2", "--dim", "1", "3", "--format", "csv", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[0] == (
            '# config: {"dim": [1, 3], "format": "csv", "out": "%s", "r": ["2"]}' % out
        )

    def test_text_table_has_no_echo(self, capsys):
        _, out, _ = run(capsys, ["constants", "--r", "2"])
        assert out.splitlines()[0].split() == ["r", "r_conj", "C_r", "C_r^1"]

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, ["constants", "--r", "3"])
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "hausdorff-young", "--trials", "3", "--p", "4/3"]
        )
        assert code == 0
        lines = out.splitlines()
        config = json.loads(lines[0])["config"]
        assert config["command"] == "verify"
        assert config["target"] == "hausdorff-young"
        assert config["trials"] == 3
        assert config["exponents"] == {"p": "4/3"}
        reports = [json.loads(line) for line in lines[1:-1]]
        assert len(reports) == 3
        assert all(r["pass"] for r in reports)
        summary = json.loads(lines[-1])["summary"]
        assert summary == {"trials": 3, "failures": 0, "degenerate": 0}

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "restriction", "--trials", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "inequality_id,exponents,ratio,pass"
        assert len(lines) == 5  # config, header, 2 rows, summary

    @pytest.mark.parametrize("inequality", ["restriction", "bilinear"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, capsys, inequality, trials):
        code, out, err = run(capsys, ["verify", inequality, "--trials", trials])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("inequality", ["restriction", "bilinear"])
    def test_memory_does_not_grow_with_the_trial_count(self, tmp_path, inequality):
        """Trials are sampled as the suite reaches them and freed after, so
        eight trials peak within one trial array of three. (Bilinear keeps
        the first trial for the closing pair; from three trials on that is
        a third array, at two it is the partner itself.)"""
        peak = functools.partial(verify_peak, tmp_path, inequality)
        peak(1)  # warm-up: first-call allocations are not the suite's
        trial_array = 16 * GRID2.n**2
        assert peak(8) - peak(3) < trial_array

    def test_bilinear_reports_grow_under_8_kib_per_trial(self, tmp_path):
        """A trial adds ten reports, one per tuple. They share each tuple's
        exponents dict and each function's descriptor, so what grows is the
        reports themselves and the artifact text: about 7 KiB per trial,
        against 11 KiB when each report built its own dict and strings."""
        peak = functools.partial(verify_peak, tmp_path, "bilinear")
        peak(1)
        assert (peak(13) - peak(3)) / 10 <= 8 * 1024

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["restriction", "--p", "3"], "p must lie in [1, 2], got 3"),
            (["same-order", "--p", "3/2", "--s", "4/3"], "p = 3/2 exceeds s = 4/3"),
        ],
    )
    def test_exponent_error_stops_before_the_first_trial(
        self, capsys, monkeypatch, argv, message
    ):
        sampled = []

        def counting(*args):
            sampled.append(args)
            return random_ensemble(*args)

        monkeypatch.setattr(inequalities, "random_ensemble", counting)
        code, out, err = run(capsys, ["verify", *argv, "--trials", "50"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert sampled == []

    def test_inadmissible_tuple_exits_2(self, capsys):
        for trials in ("2", "0"):  # the tuple is rejected before any trial
            code, out, err = run(
                capsys,
                ["verify", "bilinear", "--p", "2", "--s", "3", "--q", "2", "--t", "3",
                 "--r", "inf", "--trials", trials],
            )
            assert (code, out) == (2, "")
            assert err == (
                "error: inadmissible exponents (p=2, s=3, q=2, t=3, r=inf): "
                "violates s-t-relation\n"
            )

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        failing = RatioReport("restriction", 2.0, 1.0, 2.0, False)
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failing])
        code, out, _ = run(capsys, ["verify", "restriction", "--trials", "1"])
        assert code == 1
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["failures"] == 1

    @pytest.mark.parametrize(
        "argv, exponents, d2",
        [
            (["restriction"], {"p": "2"}, 1),
            (["restriction", "--p", "4/3"], {"p": "4/3"}, 1),
            (["hausdorff-young"], {"p": "2"}, 0),
            (["hausdorff-young", "--p", "1.5"], {"p": "3/2"}, 0),
            (["variant", "--s", "4/3"], {"p": "2", "s": "4/3"}, 1),
            (["bilinear"], {}, 1),
            (["bilinear", "--r", "inf"], {"p": "2", "s": "2", "q": "2", "t": "2", "r": "inf"}, 1),
        ],
    )
    def test_echoes_the_resolved_configuration(self, capsys, argv, exponents, d2):
        code, out, _ = run(capsys, ["verify", *argv, "--trials", "1"])
        assert code == 0
        config = json.loads(out.splitlines()[0])["config"]
        assert config["exponents"] == exponents
        assert config["d2"] == d2

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        argv = ["verify", "hausdorff-young", "--trials", "2"]
        _, stdout_text, _ = run(capsys, argv)
        out_file = tmp_path / "reports.jsonl"
        code, _, _ = run(capsys, argv + ["--out", str(out_file)])
        assert code == 0
        on_disk = out_file.read_text()
        # the out path is part of the echoed config; normalize it away
        assert on_disk.replace(str(out_file), "null") != ""
        assert stdout_text.splitlines()[1:] == on_disk.splitlines()[1:]


class TestReportSerialization:
    """Report rows as ``verify`` writes them, between the echo and the summary."""

    def rows(self, capsys, monkeypatch, reports, *flags):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: reports)
        code, out, _ = run(capsys, ["verify", "restriction", "--trials", "1", *flags])
        assert code == 0
        return out.splitlines()[1:-1]

    def test_json_lines_round_trip(self, capsys, monkeypatch):
        reports = [
            check_restriction(GAUSSIAN2, "4/3"),
            check_hausdorff_young(GAUSSIAN1, 2),
        ]
        lines = self.rows(capsys, monkeypatch, reports)
        assert len(lines) == 2
        payload = json.loads(lines[0])
        assert payload["inequality_id"] == "restriction"
        assert payload["pass"] is True
        assert payload["descriptors"]["exponents"] == {"p": "4/3"}
        assert math.isclose(payload["ratio"], reports[0].ratio)

    def test_csv_shape(self, capsys, monkeypatch):
        zero = SampledFunction(GRID2, np.zeros(GRID2.shape, complex), (SPACE, SPACE))
        reports = [check_variant(GAUSSIAN2, "4/3", 2), check_restriction(zero, 2)]
        rows = self.rows(capsys, monkeypatch, reports, "--format", "csv")
        assert rows[0] == "inequality_id,exponents,ratio,pass"
        assert rows[1].startswith("variant,p=4/3 s=2,")
        assert rows[2] == "restriction,p=2,,False"  # degenerate: empty ratio


# Deep in the asymptotic regime the transient (1 + t^2)^{1/8} factor is
# gone, so even a two-point fit lands within the slope tolerance.
@pytest.fixture(scope="module")
def short_blowup():
    return blowup_sweep(2, "4/3", t_values=(0.25, 0.125))


class TestSweepReport:
    """A sweep report as ``sweep`` writes it."""

    def artifact(self, capsys, monkeypatch, report, *flags):
        monkeypatch.setattr(cli, "blowup_sweep", lambda p, s: report)
        code, out, _ = run(capsys, ["sweep", "blowup", *flags])
        assert code == 0
        return out

    def test_csv_has_data_rows_and_json_footer(self, capsys, monkeypatch, short_blowup):
        lines = self.artifact(capsys, monkeypatch, short_blowup).splitlines()[1:]
        assert lines[0] == "parameter,observed,log_parameter,log_observed"
        assert len(lines) == 4  # header + 2 points + footer
        footer = json.loads(lines[-1].removeprefix("# "))
        assert footer["kind"] == "blowup"
        assert footer["passed"] is True
        first = lines[1].split(",")
        assert float(first[0]) == 0.25
        assert float(first[2]) == pytest.approx(math.log(0.25))

    def test_json_payload_is_complete(self, capsys, monkeypatch, short_blowup):
        payload = json.loads(self.artifact(capsys, monkeypatch, short_blowup, "--format", "json"))
        for key in ("parameter_values", "observed", "fitted_slope", "details", "criterion"):
            assert key in payload
        assert payload["details"]["p"] == "2"


class TestSweep:
    def test_blowup_csv_artifact(self, capsys):
        code, out, _ = run(capsys, ["sweep", "blowup"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "parameter,observed,log_parameter,log_observed"
        footer = json.loads(lines[-1].removeprefix("# "))
        assert footer["kind"] == "blowup"
        assert footer["passed"] is True

    def test_blowup_rejects_equal_exponents(self, capsys):
        code, _, err = run(capsys, ["sweep", "blowup", "--s", "2"])
        assert code == 2
        assert "s < p" in err

    def test_delta_json_artifact(self, capsys):
        code, out, _ = run(capsys, ["sweep", "delta", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "delta"
        assert payload["config"]["target"] == "delta"
        assert len(payload["observed"]) == 5

    def test_delta_passes_below_p_two(self, capsys):
        code, out, _ = run(capsys, ["sweep", "delta", "--p", "4/3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_delta_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, ["sweep", "delta", "--p", "3"])
        assert code == 2
        assert err.startswith("error:")

    def test_necessity_writes_one_file_per_axis(self, capsys, tmp_path):
        out = tmp_path / "drift.csv"
        code, _, _ = run(
            capsys, ["sweep", "necessity", "--r", "inf", "--out", str(out)]
        )
        assert code == 0
        for tag in ("first", "second"):
            path = tmp_path / f"drift_{tag}.csv"
            assert path.exists()
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config: ")
            footer = json.loads(lines[-1].removeprefix("# "))
            assert footer["kind"] == "necessity"
            assert footer["passed"] is True

    @pytest.mark.parametrize(
        "argv, exponents",
        [
            (["blowup"], {"p": "2", "s": "4/3"}),
            (["delta", "--p", "1.5"], {"p": "3/2"}),
            (["necessity", "--r", "inf"], {"p": "2", "s": "2", "q": "2", "t": "2", "r": "inf"}),
        ],
    )
    def test_echoes_the_resolved_exponents(self, capsys, argv, exponents):
        code, out, _ = run(capsys, ["sweep", *argv])
        assert code == 0
        config = json.loads(out.splitlines()[0].removeprefix("# config: "))
        assert config["exponents"] == exponents

    def test_a_failing_necessity_axis_writes_no_file(self, capsys, monkeypatch, tmp_path):
        real = cli.necessity_sweep

        def second_fails(exponents, grid, axis):
            if axis == "second":
                raise ValueError("second axis failed")
            return real(exponents, grid=grid, axis=axis)

        monkeypatch.setattr(cli, "necessity_sweep", second_fails)
        code, out, err = run(capsys, ["sweep", "necessity", "--out", str(tmp_path / "n.csv")])
        assert (code, out, err) == (2, "", "error: second axis failed\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_sweep_exits_1(self, capsys, monkeypatch):
        failed = SweepReport(
            "blowup", (1.0, 0.5), (1.0, 1.1), 0.14, -0.25, 0.0, False, "slope check"
        )
        monkeypatch.setattr(cli, "blowup_sweep", lambda p, s: failed)
        code, _, _ = run(capsys, ["sweep", "blowup"])
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "restriction", "--grid-l", "inf", "--trials", "1"],
        ["verify", "restriction", "--grid-l", "1e308", "--trials", "1"],
        ["verify", "hausdorff-young", "--grid-l", "1e200", "--trials", "1"],
        ["verify", "restriction", "--grid-l", "1e-300", "--trials", "1"],
        ["sweep", "delta", "--grid-l", "1e308"],
    ],
)
def test_an_extreme_grid_extent_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


EXPONENT_FLAGS = ("--p", "--s", "--q", "--t", "--r")
SUITE_FLAGS = ("--d1", "--d2", "--grid-n", "--grid-l", "--trials", "--seed", "--format", "--out")
ALL_FLAGS = EXPONENT_FLAGS + SUITE_FLAGS

#: The flags each target reads, and so accepts.
READS = {
    ("verify", "restriction"): ("--p", *SUITE_FLAGS),
    ("verify", "hausdorff-young"): ("--p", *(f for f in SUITE_FLAGS if f != "--d2")),
    ("verify", "variant"): ("--p", "--s", *SUITE_FLAGS),
    ("verify", "same-order"): ("--p", "--s", *SUITE_FLAGS),
    ("verify", "bilinear"): (*EXPONENT_FLAGS, *SUITE_FLAGS),
    ("sweep", "blowup"): ("--p", "--s", "--format", "--out"),
    ("sweep", "delta"): ("--p", "--grid-n", "--grid-l", "--format", "--out"),
    ("sweep", "necessity"): (*EXPONENT_FLAGS, "--grid-n", "--grid-l", "--format", "--out"),
}
UNREAD = [
    (*target, flag) for target, reads in READS.items() for flag in ALL_FLAGS if flag not in reads
]


class TestFlags:
    """Each target accepts exactly the flags it reads, and echoes each one."""

    def test_each_target_accepts_the_flags_it_reads(self, target_flags):
        assert target_flags == {target: set(reads) for target, reads in READS.items()}
        assert len(UNREAD) == 36

    @pytest.mark.parametrize("command, target", READS)
    def test_accepted_flags_map_onto_the_echo_keys(self, target_flags, command, target):
        flags = target_flags[command, target]
        args = cli._build_parser().parse_args([command, target, "--p", "2"])
        echo = cli._echo(args)
        key = {"--grid-n": "n", "--grid-l": "extent", **dict.fromkeys(EXPONENT_FLAGS, "exponents")}
        fixed = cli._TARGETS[command][target].fixed
        echoed = set(echo) - {"command", "target", *fixed}
        assert {key.get(flag, flag[2:]) for flag in flags} == echoed
        assert {f"--{name}" for name in echo["exponents"]} == flags & set(EXPONENT_FLAGS)

    def test_verify_targets_are_the_inequality_table(self):
        targets = cli._TARGETS["verify"]
        assert list(targets) == [name.replace("_", "-") for name in INEQUALITIES]
        for name, entry in INEQUALITIES.items():
            target = targets[name.replace("_", "-")]
            assert tuple(target.exponents) == entry.exponents
            assert target.fixed == ({"d2": 0} if entry.one_group else {})
            assert set(target.fixed).isdisjoint(target.flags)

    def test_cli_names_no_inequality_itself(self):
        """Every inequality the command line knows comes from the table."""
        names = {*INEQUALITIES, *(name.replace("_", "-") for name in INEQUALITIES)}
        tree = ast.parse(Path(cli.__file__).read_text())
        constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert names.isdisjoint(constants)

    @pytest.mark.parametrize("command, target, flag", UNREAD)
    def test_an_unread_flag_is_a_usage_error(self, capsys, tmp_path, command, target, flag):
        out = tmp_path / "artifact"
        with pytest.raises(SystemExit) as exit_:
            main([command, target, flag, "2", "--out", str(out)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: mixnorm {command} {target} ")
        assert f"unrecognized arguments: {flag} 2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "restriction", "--t", "4"],  # not --trials
            ["verify", "restriction", "--s", "5"],  # not --seed
            ["verify", "restriction", "--tri", "4"],
            ["sweep", "blowup", "--form", "json"],
            ["constants", "--r", "2", "--form", "json"],
        ],
    )
    def test_flags_must_be_spelled_in_full(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "restriction", "--p", ""], "Invalid literal for Fraction: ''"),
            (["verify", "variant", "--s", "abc"], "Invalid literal for Fraction: 'abc'"),
            (["verify", "bilinear", "--r", ""], "Invalid literal for Fraction: ''"),
            (["sweep", "necessity", "--t", "0.5"], "exponent must be >= 1, got 1/2"),
        ],
    )
    def test_malformed_exponent_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestDeterminism:
    def test_verify_artifacts_are_byte_identical(self, capsys, tmp_path):
        argv = ["verify", "restriction", "--trials", "2", "--seed", "11"]
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            # identical configs except for the echoed output path
            assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        first = paths[0].read_text().replace(str(paths[0]), "OUT")
        second = paths[1].read_text().replace(str(paths[1]), "OUT")
        assert first == second

    def test_sweep_artifacts_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["sweep", "delta"])
        _, second, _ = run(capsys, ["sweep", "delta"])
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "bilinear", "--trials", "4", "--grid-n", "256"),
            ("sweep", "blowup", "--format", "json"),
        ],
    )
    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, argv):
        outputs = []
        for threads in ("1", "2"):
            result = run_module(*argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            assert result.returncode == 0
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestParser:
    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for argv in (["constants", "--r", "2"], ["verify", "restriction", "--trials", "1"]):
            run(capsys, argv)
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_a_usage_error_leaves_the_parser_as_fresh(self, capsys):
        argv = ["verify", "hausdorff-young", "--p", "4/3", "--trials", "2"]
        for bad in (argv + ["--trials", "x"], argv + ["--d2", "1"]):
            with pytest.raises(SystemExit):
                main(bad)
        capsys.readouterr()
        code, out, err = run(capsys, argv)
        fresh = run_module(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def run_module(*argv, **env):
    """Run ``python -m mixnorm`` in a fresh interpreter on the code this
    process imported, with ``env`` added to its environment."""
    package_root = str(Path(mixnorm.__file__).parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    return subprocess.run(
        [sys.executable, "-m", "mixnorm", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = run_module("constants", "--r", "2", "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout.splitlines()[1])["C_r"] == 1.0

    def test_exit_code_passes_through(self):
        result = run_module("constants", "--r", "3")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "restriction", "--p", "1/0", "--trials", "1"],
            ["verify", "restriction", "--p", "0/0", "--trials", "1"],
            ["constants", "--r", "1/0"],
            ["sweep", "delta", "--p", "1/0"],
        ],
    )
    def test_a_zero_denominator_exits_2_with_one_error_line(self, argv):
        result = run_module(*argv)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("inequality", ["restriction", "bilinear", "variant", "same-order"])
    def test_a_degenerate_check_writes_strict_json_and_no_warning(self, inequality):
        # at extent 1e150 the norms overflow, which makes the rows degenerate
        result = run_module("verify", inequality, "--grid-l", "1e150", "--trials", "1")

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        lines = [json.loads(line, parse_constant=reject) for line in result.stdout.splitlines()]
        assert (result.returncode, result.stderr) == (0, "")
        assert lines[-1]["summary"]["degenerate"] > 0

    @pytest.mark.skipif(
        shutil.which("mixnorm") is None, reason="mixnorm script is not installed"
    )
    def test_path_script(self):
        result = subprocess.run(
            ["mixnorm", "constants", "--r", "2", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout.splitlines()[1])["C_r"] == 1.0
