"""Command line behavior: schemas, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cantorsq
from cantorsq.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cantorsq.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDecomposeCommand:
    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "decompose", "--x", "7/13")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == "cantor-four-squares/1"
        assert data["x"] == "7/13"
        assert len(data["points"]) == 4
        assert len(data["trace"]) == data["depth"] == 40

    def test_deterministic_bytes(self, capsys):
        _, first = run_cli(capsys, "decompose", "--x", "355/113")
        _, second = run_cli(capsys, "decompose", "--x", "355/113")
        assert first == second

    def test_out_file_roundtrips_through_verify(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _ = run_cli(capsys, "decompose", "--x", "2", "--out", str(path))
        assert code == EXIT_OK
        code, out = run_cli(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["valid"] is True

    def test_tampered_file_fails_verify(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "decompose", "--x", "2", "--out", str(path))
        data = json.loads(path.read_text())
        data["values"][1] = "1/2"
        path.write_text(json.dumps(data))
        code, out = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFY
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["reasons"]

    def test_human_output(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--x", "7/13", "--output", "human", "--ternary"
        )
        assert code == EXIT_OK
        assert "verified : yes" in out
        assert "ternary" in out
        assert "~" in out  # decimal previews

    def test_depth_flag(self, capsys):
        code, out = run_cli(capsys, "decompose", "--x", "1/2", "--depth", "7")
        assert code == EXIT_OK
        assert json.loads(out)["depth"] == 7


class TestImageCommand:
    def test_four_squares_fill(self, capsys):
        code, out = run_cli(capsys, "image", "--level", "2", "--arity", "4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["union"] == [["0", "4"]]
        assert data["measure"] == "4"
        assert data["map"] == "sq"
        assert data["boxes_enumerated"] == 35  # multisets of size 4 from 4 pieces

    def test_difference_map(self, capsys):
        code, out = run_cli(
            capsys, "image", "--level", "1", "--arity", "2", "--map", "diff"
        )
        assert code == EXIT_OK
        assert json.loads(out)["union"] == [["-1", "1"]]

    def test_human_format(self, capsys):
        code, out = run_cli(
            capsys, "image", "--level", "1", "--arity", "3", "--output", "human"
        )
        assert code == EXIT_OK
        assert "measure" in out

    @pytest.mark.parametrize("output", ["json", "human"])
    def test_deterministic_bytes(self, output):
        """Two fresh processes print the same stdout; the timing goes to
        stderr as its one line."""
        argv = [sys.executable, "-m", "cantorsq.cli", "image", "--level", "3",
                "--arity", "3", "--output", output]
        env = dict(os.environ, PYTHONPATH=SRC)
        runs = [subprocess.run(argv, env=env, capture_output=True, text=True,
                               timeout=120, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert "elapsed" not in runs[0].stdout
        for run in runs:
            lines = run.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("elapsed_ms ")


class TestGapCheckCommand:
    def test_thin(self, capsys):
        code, out = run_cli(capsys, "gap-check", "--alpha", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["gap"]["lo"] == "1/4"
        assert data["gap"]["hi"] == "9/16"

    def test_thick(self, capsys):
        code, out = run_cli(capsys, "gap-check")
        assert code == EXIT_OK
        assert json.loads(out)["gap"] is None


class TestVerifyLemmasCommand:
    def test_exhaustive_sweep(self, capsys):
        code, out = run_cli(capsys, "verify-lemmas", "--max-level", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["all_pass"] is True
        assert [row["level"] for row in data["levels"]] == [1, 2, 3]
        assert all(Fraction(m) > 0 for m in data["min_chain_margins"])
        assert Fraction(data["min_join_margin"]) >= 0

    def test_random_boxes(self, capsys):
        code, out = run_cli(
            capsys, "verify-lemmas", "--max-level", "2",
            "--random-boxes", "25", "--seed", "7",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["random"]["sampled"] == 25
        assert data["random"]["closure_failures"] == 0


class TestCoverReportCommand:
    @pytest.mark.parametrize("alpha", ["3", "4"])
    def test_bands_covered(self, capsys, alpha):
        code, out = run_cli(
            capsys, "cover-report", "--alpha", alpha, "--max-level", "3"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["all_pass"] is True
        names = {claim["name"] for claim in data["claims"]}
        assert names == {"three-square-bands", "four-square-range"}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--x", "abc"],
            ["decompose", "--x", "5"],
            ["decompose", "--x", "1/2", "--alpha", "2"],
            ["decompose", "--x", "1", "--alpha", "0"],
            ["decompose", "--x", "1", "--alpha", "4", "--ternary",
             "--output", "human"],
            ["image", "--level", "1", "--arity", "5"],
            ["verify", "/nonexistent/cert.json"],
        ],
    )
    def test_exit_two_with_error_payload(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        payload = json.loads(out)
        assert payload["error"]["kind"] == "usage"
        assert payload["error"]["message"]

    def test_malformed_certificate_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "wrong/1"}')
        code, out = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert json.loads(out)["error"]["kind"] == "usage"

    @pytest.mark.parametrize("key, value", [
        ("depth", "12"), ("depth", 12.0), ("depth", True), ("scaling", "0"),
    ])
    def test_mistyped_certificate_field(self, capsys, tmp_path, key, value):
        path = tmp_path / "cert.json"
        code, _ = run_cli(capsys, "decompose", "--x", "7/13", "--depth", "12",
                          "--out", str(path))
        assert code == EXIT_OK
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        code, out = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert json.loads(out)["error"]["kind"] == "usage"

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_box_cap_flag(self, capsys):
        code, out = run_cli(capsys, "image", "--level", "1", "--arity", "4",
                            "--box-cap", "4")
        assert code == EXIT_USAGE
        assert "cap" in json.loads(out)["error"]["message"]

    def test_level_cap_flag(self, capsys):
        code, out = run_cli(capsys, "verify-lemmas", "--max-level", "3",
                            "--box-cap", "4")
        assert code == EXIT_USAGE
        assert "cap" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["decompose", "--x", "1", "--seed", "5"],
        ["decompose", "--x", "1", "--box-cap", "1"],
        ["gap-check", "--level-cap", "0"],
        ["verify", "FILE", "--alpha", "3"],
    ])
    def test_unread_option_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_large_lemma_sweep_refused_fast(self, capsys):
        started = time.perf_counter()
        code, out = run_cli(capsys, "verify-lemmas", "--max-level", "20")
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_USAGE
        assert "cap" in json.loads(out)["error"]["message"]

    def test_huge_image_level(self, capsys):
        """Refused by the cap, not by CPython's limit on printing ints."""
        code, out = run_cli(capsys, "image", "--level", "20000")
        assert code == EXIT_USAGE
        assert "cap" in json.loads(out)["error"]["message"]

    def test_deeply_nested_certificate(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert json.loads(out)["error"]["kind"] == "usage"


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("cantorsq")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "decompose", "--x", "2", "--depth", "5"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["x"] == "2"
