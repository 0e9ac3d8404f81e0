"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_passive_defaults(self):
        args = build_parser().parse_args(["passive"])
        assert args.preset == "pop10"
        assert args.coverage == 0.95
        assert args.seed == 0

    def test_active_arguments(self):
        args = build_parser().parse_args(["active", "--preset", "pop15", "--candidates", "8"])
        assert args.preset == "pop15"
        assert args.candidates == 8

    def test_figures_arguments(self):
        args = build_parser().parse_args(["figures", "--seeds", "2", "--skip-large"])
        assert args.seeds == 2
        assert args.skip_large

    def test_invalid_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["passive", "--preset", "pop1000"])

    @pytest.mark.parametrize("flag", [["--pricing", "devex"], ["--decomposition", "colgen"]])
    def test_passive_rejects_retired_solver_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["passive", *flag])

    def test_lint_model_defaults(self):
        args = build_parser().parse_args(["lint-model"])
        assert args.preset == "pop10"
        assert args.coverage == 0.95
        assert args.formulation == "both"

    def test_lint_model_rejects_unknown_formulation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint-model", "--formulation", "quantum"])


class TestCommands:
    def test_passive_command_runs(self, capsys):
        assert main(["passive", "--preset", "pop10", "--coverage", "0.85", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "greedy:" in out
        assert "ilp" in out

    def test_active_command_runs(self, capsys):
        assert main(["active", "--preset", "pop15", "--candidates", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "probes" in out
        assert "exact ILP" in out

    def test_lint_model_command_runs(self, capsys):
        # The paper's own formulations must lint without error-severity
        # findings (info/warning findings are allowed), so exit code is 0.
        assert main(["lint-model", "--preset", "pop10", "--formulation", "both"]) == 0
        out = capsys.readouterr().out
        assert "ppm-lp2" in out
        assert "beacon-ilp" in out
        assert "model analysis" in out
        # Each reduction is stated once: the LP2's one redundant row shows up
        # as a single presolve-rows finding, not also as row-redundant.
        lp2_report = out.split("-- ppm-lp2", 1)[1].split("-- beacon-ilp", 1)[0]
        findings = [line.strip() for line in lp2_report.splitlines() if line.startswith("  ")]
        assert len(findings) == 1, findings
        assert findings[0].startswith("info: presolve-rows:")
        assert "row-redundant" not in out

    def test_lint_model_passive_only(self, capsys):
        assert main(["lint-model", "--formulation", "passive"]) == 0
        out = capsys.readouterr().out
        assert "ppm-lp2" in out
        assert "beacon-ilp" not in out
