"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "bending"])
        assert args.device == "bending"
        assert args.sampling == "axial+worst"

    def test_design_rejects_unknown_device(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "modulator"])

    def test_design_solver_flag(self):
        args = build_parser().parse_args(
            ["design", "bending", "--solver", "krylov"]
        )
        assert args.solver == "krylov"
        assert build_parser().parse_args(["design", "bending"]).solver == "direct"

    def test_help_documents_solver_fallback(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--help"])
        # argparse re-wraps help text to the terminal width; compare on
        # whitespace-normalized output.
        out = " ".join(capsys.readouterr().out.split())
        assert "--solver" in out
        assert "falls back" in out

    def test_baseline_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "bending", "MagicOpt"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "bending" in out
        assert "BOSON-1" in out
        assert "axial+worst" in out

    def test_design_and_evaluate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "design.json"
        code = main(
            [
                "design",
                "bending",
                "--iterations",
                "2",
                "--sampling",
                "nominal",
                "--quiet",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        capsys.readouterr()

        code = main(["evaluate", str(out_path), "--samples", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "post-fab FoM" in out

    def test_design_with_krylov_solver(self, tmp_path, capsys):
        out_path = tmp_path / "design_krylov.json"
        code = main(
            [
                "design",
                "bending",
                "--iterations",
                "2",
                "--sampling",
                "nominal",
                "--solver",
                "krylov",
                "--quiet",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value, needle",
        [
            ("--solver", "krylov-block", "use 'krylov'"),
            ("--solver", "bogus", "unknown solver backend 'bogus'"),
            ("--executor", "bogus", "got 'bogus'"),
            ("--aggregate", "bogus", "unknown aggregate mode 'bogus'"),
        ],
    )
    def test_design_refuses_bad_config_value(
        self, tmp_path, capsys, flag, value, needle
    ):
        out_path = tmp_path / "design.json"
        code = main(
            ["design", "bending", "--iterations", "1", flag, value,
             "--output", str(out_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert needle in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "solver, needle",
        [
            ("krylov-block", "use 'krylov'"),
            ("bogus", "unknown solver backend 'bogus'"),
            ("krylov:bogus", "got 'bogus'"),
        ],
    )
    def test_evaluate_refuses_bad_solver(self, tmp_path, capsys, solver, needle):
        from repro.utils.io import save_result

        path = save_result(
            {"device": "bending", "pattern": np.zeros((32, 32))},
            tmp_path / "design.json",
        )
        code = main(["evaluate", str(path), "--samples", "1", "--solver", solver])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert needle in err

    def test_baseline_command(self, tmp_path, capsys):
        out_path = tmp_path / "ls.json"
        code = main(
            [
                "baseline",
                "bending",
                "LS",
                "--iterations",
                "2",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        from repro.utils.io import load_result

        payload = load_result(out_path)
        assert payload["method"] == "LS"
        assert np.asarray(payload["pattern"]).shape == (32, 32)
