"""Tests for the count table and the per-side runs of ``tools/work_counts.py``."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("work_counts", _ROOT / "tools" / "work_counts.py")
work_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(work_counts)


def _counts(schur=3):
    return {"e-in": {"fixture/3x3": {"schur": schur, "eigh": 2}, "lowrank/2x4": {"iterations": 4}},
            "sep": {"mixture/3x3": {"eigh": 4}}}


def test_parse_workloads():
    assert work_counts.parse_workloads("e-in,sep,") == ["e-in", "sep"]
    for text in ("e-in,bogus", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            work_counts.parse_workloads(text)


def test_rows_pair_every_count_of_both_sides():
    parent, change = _counts(), _counts(schur=2)
    change["e-in"]["lowrank/2x4"]["solves"] = 6
    assert work_counts.rows(parent, change) == [
        ("e-in", "fixture/3x3", "eigh", 2, 2),
        ("e-in", "fixture/3x3", "schur", 3, 2),
        ("e-in", "lowrank/2x4", "iterations", 4, 4),
        ("e-in", "lowrank/2x4", "solves", 0, 6),
        ("sep", "mixture/3x3", "eigh", 4, 4),
    ]


def test_summarize_prints_both_sides_and_the_difference(capsys):
    assert work_counts.summarize({"parent": _counts(), "change": _counts(schur=5)}) == 0
    out = capsys.readouterr().out
    assert "fixture/3x3" in out and "+2" in out
    assert "1 of 4 counts differ" in out
    assert work_counts.summarize({"parent": _counts(), "change": _counts()}) == 0
    assert "0 of 4 counts differ" in capsys.readouterr().out


def test_call_counts_pair_and_align_like_the_others(capsys):
    # the gate, apply_second and einsum counts of one class, one gate fewer on the change
    parent = {"harness": {"check/pos": {"check_hermitian": 2, "einsum": 3}, "verify/C2/3x3": {"apply_second": 7}}}
    change = {"harness": {"check/pos": {"check_hermitian": 1, "einsum": 3}, "verify/C2/3x3": {"apply_second": 7}}}
    assert work_counts.rows(parent, change) == [
        ("harness", "check/pos", "check_hermitian", 2, 1),
        ("harness", "check/pos", "einsum", 3, 3),
        ("harness", "verify/C2/3x3", "apply_second", 7, 7),
    ]
    assert work_counts.summarize({"parent": parent, "change": change}) == 0
    header, gate, einsum, apply, total = capsys.readouterr().out.splitlines()
    assert gate.split() == ["harness", "check/pos", "check_hermitian", "2", "1", "-1"]
    assert len({len(header), len(gate), len(einsum), len(apply)}) == 1
    assert total == "1 of 3 counts differ"


def test_main_runs_each_side_once(tmp_path, monkeypatch, capsys):
    calls = []

    def run_side(checkout, names, seed):
        calls.append((checkout.name, tuple(names), seed))
        return _counts(schur=4 if checkout.name == "change" else 3)

    monkeypatch.setattr(work_counts, "run_side", run_side)
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert work_counts.main(args + ["--workloads", "e-in", "--seed", "7"]) == 0
    assert calls == [("parent", ("e-in",), 7), ("change", ("e-in",), 7)]
    assert "1 of 4 counts differ" in capsys.readouterr().out
    calls.clear()
    assert work_counts.main(args) == 0
    assert calls[0] == ("parent", work_counts.WORKLOADS, 1)


def test_a_side_counts_the_e_engine_in_a_fresh_interpreter():
    counts = work_counts.run_side(_ROOT, ["e-out"], 1)
    classes = counts["e-out"]
    assert len(classes) == 10  # 12 operations, the three conjugations in one class
    # each operation is one in_E call, which gates its operator once
    assert sum(c["check_hermitian"] for c in classes.values()) == 12
    for cls, c in classes.items():
        assert c["schur"] >= 1 and c["iterations"] >= 1, cls
        # every solve is a Schur solve after the first step, which assembles nothing
        assert c["solve"] == c["solves"] and c["schur"] <= c["iterations"] - 1, cls
