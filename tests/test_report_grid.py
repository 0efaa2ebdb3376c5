"""Tests for the grid parsing and report comparison of ``tools/report_grid.py``."""

import argparse
import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_grid.py"
_SPEC = importlib.util.spec_from_file_location("report_grid", _PATH)
report_grid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_grid)


def test_parse_lists_seeds_and_dims():
    assert report_grid.parse_list("C2,T1,") == ["C2", "T1"]
    assert report_grid.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert report_grid.parse_dims("2x2,2x3") == [(2, 2), (2, 3)]
    with pytest.raises(argparse.ArgumentTypeError):
        report_grid.parse_dims("3")


def test_grid_nests_suites_dims_seeds_and_tols():
    argvs = report_grid.grid(["C2", "T6"], [(2, 3)], [1, 2], ["1e-9", "0.05"], 40)
    assert len(argvs) == 8
    assert argvs[0] == ["verify", "C2", "2", "3", "--trials", "40", "--seed", "1", "--tol", "1e-9"]
    assert argvs[1][-1] == "0.05" and argvs[2][7] == "2" and argvs[4][1] == "T6"


def _result(argv, stdout="report\n", stderr="", code=0):
    return {"argv": argv, "stdout": stdout, "stderr": stderr, "code": code}


def _grid_results():
    return [_result(argv) for argv in report_grid.grid(["C2", "T1"], [(2, 2)], [1, 2], ["1e-9"], 4)]


def test_digests_are_per_suite_over_every_field():
    results = _grid_results()
    sums = report_grid.digests(results)
    assert list(sums) == ["C2", "T1"]
    c2 = hashlib.sha256(b"".join(report_grid._record(r) for r in results[:2])).hexdigest()
    assert sums["C2"] == c2
    for field, value in (("stdout", "other\n"), ("stderr", "error: x\n"), ("code", 65)):
        moved = [dict(r) for r in results]
        moved[3][field] = value
        moved_sums = report_grid.digests(moved)
        assert moved_sums["C2"] == c2 and moved_sums["T1"] != sums["T1"], field


def test_differences_name_each_differing_run(capsys):
    parent = _grid_results()
    change = [dict(r) for r in parent]
    change[1]["code"] = 65
    change[2]["stdout"] = "report'\n"
    assert report_grid.differences(parent, change) == [parent[1]["argv"], parent[2]["argv"]]
    assert report_grid.summarize({"parent": parent, "change": change}) == 1
    out = capsys.readouterr().out
    assert "2 of 4 runs differ" in out
    assert "  verify C2 2 2 --trials 4 --seed 2 --tol 1e-9" in out
    assert report_grid.summarize({"parent": parent, "change": [dict(r) for r in parent]}) == 0
    assert "0 of 4 runs differ" in capsys.readouterr().out


def test_different_grids_are_not_compared():
    parent = _grid_results()
    with pytest.raises(ValueError, match="different grids"):
        report_grid.differences(parent, parent[:-1] + [_result(["verify", "T1", "3", "3"])])


def test_main_runs_each_side_once_over_the_grid(tmp_path, monkeypatch, capsys):
    calls = []

    def run_side(checkout, argvs):
        calls.append((checkout.name, len(argvs)))
        return [_result(argv, code=65 if checkout.name == "change" and argv[1] == "T6" else 0) for argv in argvs]

    monkeypatch.setattr(report_grid, "run_side", run_side)
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--dims", "2x2,3x3",
            "--seeds", "1-2", "--tols", "1e-9", "--trials", "4"]
    assert report_grid.main(args + ["--suites", "C2"]) == 0
    assert calls == [("parent", 4), ("change", 4)]
    assert report_grid.main(args + ["--suites", "C2,T6"]) == 1
    assert "4 of 8 runs differ" in capsys.readouterr().out
