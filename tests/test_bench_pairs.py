"""Tests for the pair statistics of ``tools/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "ops_per_s", "better": "higher", "bound": 0.25}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1001-1003,1007") == [1001, 1002, 1003, 1007]
    assert bench_pairs.parse_seeds("1001-1003,") == [1001, 1002, 1003]


@pytest.mark.parametrize("seeds,message", [("5-3", "descending seed range '5-3'"), (",", "empty list ','")])
def test_seeds_without_a_run_are_an_argument_error(tmp_path, monkeypatch, capsys, seeds, message):
    # these once reached args.seeds[0] and died with an IndexError
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("no side may run"))
    argv = _checkouts(tmp_path, ["sep"])
    argv[argv.index("--seeds") + 1] = seeds
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--workload", "sep"] + argv)
    assert exc.value.code == 2
    assert f"argument --seeds: {message}" in capsys.readouterr().err


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5)


def test_claim_passes_on_nine_of_ten_pairs_and_a_gap_past_the_iqr():
    par = [10.0 + 0.1 * k for k in range(10)]
    chg = [p - 1.0 for p in par]
    chg[0] = par[0] + 1.0
    v = bench_pairs.verdict(LATENCY, par, chg)
    assert (v["won"], v["pairs"]) == (9, 10)
    assert v["claim"] and not v["regressed"]


def test_claim_fails_on_eight_pairs_or_a_gap_inside_the_iqr():
    par = [10.0 + 0.1 * k for k in range(10)]
    chg = [p - 1.0 for p in par]
    chg[0] = chg[1] = 20.0
    assert not bench_pairs.verdict(LATENCY, par, chg)["claim"]
    # every pair won, but by less than the parent's own spread
    assert not bench_pairs.verdict(LATENCY, par, [p - 0.01 for p in par])["claim"]


def test_ties_count_for_neither_side():
    v = bench_pairs.verdict(LATENCY, [1.0] * 10, [1.0] * 10)
    assert v["won"] == 0
    assert not v["claim"] and not v["regressed"]


@pytest.mark.parametrize("spec,worse,within", [(LATENCY, 1.26, 1.24), (THROUGHPUT, 0.74, 0.76)])
def test_regression_is_a_median_worse_than_the_relative_bound(spec, worse, within):
    par = [100.0] * 10
    assert bench_pairs.verdict(spec, par, [100.0 * worse] * 10)["regressed"]
    assert not bench_pairs.verdict(spec, par, [100.0 * within] * 10)["regressed"]


def _run(seed, classes):
    """A hand-built run with one end-to-end metric and the given {class: p50_ms}."""
    return {"seed": seed,
            "result": {"metrics": {"latency_p50_ms": {"value": 1.0}}, "attempted": 4, "failed": 0},
            "classes": {cls: {"ops": 2, "undecided": 0, "failed": 0, "p50_ms": p50} for cls, p50 in classes.items()}}


def test_class_table_covers_the_classes_of_both_sides(capsys):
    runs = {"parent": [_run(1, {"a": 1.0, "b": 5.0}), _run(2, {"a": 3.0})],
            "change": [_run(1, {"a": 2.0, "c": 7.0}), _run(2, {"a": 4.0, "c": 9.0})]}
    assert bench_pairs.class_p50s(runs) == {"a": [2.0, 3.0], "b": [5.0, None], "c": [None, 8.0]}
    bench_pairs.summarize(runs, {"end_to_end": [LATENCY]})
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["b"] == ["5.000", "-"] and rows["c"] == ["-", "8.000"]


def _checkouts(tmp_path, workloads):
    """Parent and change directories, the change's BENCHMARK.json naming ``workloads``."""
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    bench = {"workloads": [{"name": w} for w in workloads], "end_to_end": [LATENCY]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seeds", "1-2",
            "--out", str(tmp_path / "out"), "--parent-source", "p", "--change-source", "c"]


def test_workloads_come_from_the_changes_benchmark(tmp_path, monkeypatch, capsys):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(workload)
        return _run(seed, {"a": 1.0})

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.work_counts, "run_side", lambda checkout, names, seed: {names[0]: {}})
    argv = _checkouts(tmp_path, ["e-large", "sep"])
    assert bench_pairs.main(["--workload", "e-large"] + argv) == 0
    assert calls == ["e-large"] * 4
    assert json.loads((tmp_path / "out" / "BENCH_e-large_change.json").read_text())["workload"] == "e-large"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--workload", "e-in"] + argv)
    assert exc.value.code == 2 and calls == ["e-large"] * 4
    assert "invalid choice: 'e-in' (choose from e-large, sep)" in capsys.readouterr().err


def test_counts_go_to_each_bench_file_and_the_summary(tmp_path, monkeypatch, capsys):
    # hand-built counts: the change gates once where the parent gated twice
    gates = {"parent": 2, "change": 1}
    sides = []

    def run_side(checkout, names, seed):
        side = checkout.name
        sides.append((side, names, seed))
        return {names[0]: {"check/pos": {"check_hermitian": gates[side], "eigh": 3}}}

    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds: _run(seed, {"a": 1.0}))
    monkeypatch.setattr(bench_pairs.work_counts, "run_side", run_side)
    assert bench_pairs.main(["--workload", "sep"] + _checkouts(tmp_path, ["sep"])) == 0
    assert sides == [("parent", ["sep"], 1), ("change", ["sep"], 1)]
    for side in bench_pairs.SIDES:
        doc = json.loads((tmp_path / "out" / f"BENCH_sep_{side}.json").read_text())
        assert doc["counts"] == {"check/pos": {"check_hermitian": gates[side], "eigh": 3}}
    out = capsys.readouterr().out.splitlines()
    metric = next(k for k, line in enumerate(out) if line.startswith("latency_p50_ms"))
    assert out[metric + 1] == "1 of 2 counts differ"
