"""Tests for the pair statistics of ``tools/bench_pairs.py``."""

import importlib.util
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
