"""End-to-end command line behavior: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convexcover.cli import main
from convexcover.errors import CycleDetected, InvariantViolation, NonConvexClosure
from convexcover.fileio import dump_json


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(dump_json(obj))
        return str(path)
    return write


@pytest.fixture
def square_file(files):
    return files("sq.json", {"name": "sq", "outer": [[0, 0], [4, 0], [4, 4], [0, 4]]})


@pytest.fixture
def holed_file(files):
    return files("hs.json", {
        "name": "hs",
        "outer": [[0, 0], [4, 0], [4, 4], [0, 4]],
        "holes": [[[1, 1], [1, 3], [3, 3], [3, 1]]],
    })


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCover:
    def test_square(self, capsys, square_file):
        code, out, err = run(capsys, ["cover", square_file])
        assert code == 0
        data = json.loads(out)
        assert data["algorithm"] == "greedy-cover"
        assert data["polygons"] == [[[0, 0], [4, 0], [4, 4], [0, 4]]]
        assert data["metadata"] == {
            "faces": 4, "gains": [4], "iterations": 1, "pieces": 1}
        assert "1 pieces by greedy-cover" in err

    def test_output_file(self, capsys, square_file, tmp_path):
        out_path = tmp_path / "sol.json"
        code, out, _ = run(capsys, ["cover", square_file, "-o", str(out_path)])
        assert code == 0
        assert out == ""
        code, direct, _ = run(capsys, ["cover", square_file])
        assert out_path.read_text() == direct

    def test_iteration_cap_falls_back(self, capsys, holed_file):
        code, out, _ = run(capsys, ["cover", holed_file, "--max-iters", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["algorithm"] == "triangulation"
        assert data["metadata"] == {"faces": 48, "iterations": 1, "pieces": 8}


class TestPeel:
    def test_no_rot_takes_everything(self, capsys, square_file, files):
        rotten = files("rot0.json", {"regions": []})
        code, out, _ = run(capsys, ["peel", square_file, rotten])
        assert code == 0
        data = json.loads(out)
        assert data["algorithm"] == "rotten-peel"
        assert data["polygons"] == [[[0, 0], [4, 0], [4, 4], [0, 4]]]
        assert data["metadata"]["value"] == 16
        assert data["metadata"]["regions"] == []

    def test_diamond_rot(self, capsys, square_file, files):
        rotten = files("rot1.json", {"regions": [[[2, 1], [3, 2], [2, 3], [1, 2]]]})
        code, out, _ = run(capsys, ["peel", square_file, rotten])
        assert code == 0
        assert json.loads(out)["metadata"]["value"] == 14

    def test_overlapping_regions_rejected(self, capsys, square_file, files):
        rotten = files("rot2.json", {"regions": [
            [[1, 1], [3, 1], [3, 3], [1, 3]],
            [[2, 2], [4, 2], [4, 4], [2, 4]],
        ]})
        code, _, err = run(capsys, ["peel", square_file, rotten])
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_good_cover(self, capsys, square_file, tmp_path):
        sol = tmp_path / "sol.json"
        run(capsys, ["cover", square_file, "-o", str(sol)])
        code, out, _ = run(capsys, ["verify", square_file, str(sol)])
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["coverage_ok"] is True

    def test_gap_fails(self, capsys, square_file, files):
        # one triangle leaves the upper half uncovered
        sol = files("bad.json", {
            "instance": "sq",
            "algorithm": "greedy-cover",
            "polygons": [[[0, 0], [4, 0], [4, 4]]],
            "metadata": {},
        })
        code, out, _ = run(capsys, ["verify", square_file, sol])
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert report["coverage_ok"] is False

    def test_oracle_report(self, capsys, square_file, tmp_path):
        sol = tmp_path / "sol.json"
        run(capsys, ["cover", square_file, "-o", str(sol)])
        code, out, _ = run(capsys, ["verify", square_file, str(sol), "--oracle"])
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["status"] == "ok"
        assert oracle["optimum"] == 1
        assert oracle["within_bound"] is True

    def test_peel_solution(self, capsys, square_file, files, tmp_path):
        rotten = files("rot.json", {"regions": [[[2, 1], [3, 2], [2, 3], [1, 2]]]})
        sol = tmp_path / "peel.json"
        run(capsys, ["peel", square_file, rotten, "-o", str(sol)])
        code, out, _ = run(capsys, ["verify", square_file, str(sol)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_tampered_peel_value(self, capsys, square_file, files, tmp_path):
        rotten = files("rot.json", {"regions": [[[2, 1], [3, 2], [2, 3], [1, 2]]]})
        sol = tmp_path / "peel.json"
        run(capsys, ["peel", square_file, rotten, "-o", str(sol)])
        data = json.loads(sol.read_text())
        data["metadata"]["value"] = 15
        sol.write_text(dump_json(data))
        code, out, _ = run(capsys, ["verify", square_file, str(sol)])
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert any("claimed value" in m for m in report["messages"])


class TestStats:
    def test_square_counts(self, capsys, square_file):
        code, out, err = run(capsys, ["stats", square_file])
        assert code == 0
        assert json.loads(out) == {"D": 6, "V_D": 5, "U": 4}
        assert "4 vertices" in err


class TestRender:
    def test_svg_to_stdout(self, capsys, square_file):
        code, out, _ = run(capsys, ["render", square_file])
        assert code == 0
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")

    def test_with_solution_and_arrangement(self, capsys, square_file, tmp_path):
        sol = tmp_path / "sol.json"
        run(capsys, ["cover", square_file, "-o", str(sol)])
        out_path = tmp_path / "pic.svg"
        code, out, _ = run(capsys, ["render", square_file, str(sol),
                                    "--show-arrangement", "-o", str(out_path)])
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        # pieces draw as filled paths, arrangement lines are dashed
        assert text.count("<path") >= 2
        assert "stroke-dasharray" in text


class TestErrors:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["stats", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert "invalid JSON" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_float_coordinates(self, capsys, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text('{"outer": [[0, 0], [4, 0], [4, 4.5], [0, 4]]}')
        code, _, err = run(capsys, ["stats", str(path)])
        assert code == 2
        assert "float" in err

    def test_self_intersecting_outer(self, capsys, files):
        bowtie = files("bow.json", {"outer": [[0, 0], [4, 4], [4, 0], [0, 4]]})
        code, _, err = run(capsys, ["cover", bowtie])
        assert code == 2
        assert "error:" in err

    def test_holes_not_a_list(self, capsys, files):
        path = files("h5.json", {"outer": [[0, 0], [4, 0], [4, 4], [0, 4]], "holes": 5})
        code, _, err = run(capsys, ["cover", path])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_regions_not_a_list(self, capsys, square_file, files):
        rotten = files("r3.json", {"regions": 3})
        code, _, err = run(capsys, ["peel", square_file, rotten])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("meta", [{"value": "abc", "regions": []},
                                      {"value": 16, "regions": 3}])
    def test_malformed_peel_metadata(self, capsys, square_file, files, meta):
        sol = files("peel.json", {"instance": "sq", "algorithm": "rotten-peel",
                                  "polygons": [[[0, 0], [4, 0], [4, 4], [0, 4]]],
                                  "metadata": meta})
        code, _, err = run(capsys, ["verify", square_file, sol])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_directory_as_instance(self, capsys, tmp_path):
        code, _, err = run(capsys, ["cover", str(tmp_path)])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("exc", [InvariantViolation("lost the trail"),
                                     CycleDetected("turn graph is not acyclic"),
                                     NonConvexClosure("path closure is not convex")])
    def test_internal_error_exits_4(self, capsys, square_file, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc
        monkeypatch.setattr("convexcover.cli.greedy_cover", broken)
        code, out, err = run(capsys, ["cover", square_file])
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal:") and err.count("\n") == 1
        assert str(exc) in err

    def test_usage_errors(self, capsys):
        assert run(capsys, [])[0] == 2
        assert run(capsys, ["frobnicate"])[0] == 2
        assert run(capsys, ["cover"])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0


class TestDeterminism:
    def test_reruns_byte_identical(self, capsys, holed_file, files):
        rotten = files("rot.json", {"regions": [[[2, 1], [3, 2], [2, 3], [1, 2]]]})
        for argv in (["cover", holed_file],
                     ["peel", holed_file, rotten],
                     ["stats", holed_file],
                     ["render", holed_file, "--show-arrangement"]):
            _, first, _ = run(capsys, argv)
            _, second, _ = run(capsys, argv)
            assert first == second, argv


class TestConsoleEntry:
    def test_module_invocation(self, square_file):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "convexcover.cli", "stats", square_file],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"D": 6, "V_D": 5, "U": 4}
