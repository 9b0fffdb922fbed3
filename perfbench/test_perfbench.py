"""Tests of the benchmark itself: self-time arithmetic and metric naming.

Run with: python3 -m pytest perfbench
"""

import re

import pytest

import run
from spans import covered, layer_totals, self_times
from traced import WRAPPED

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, parent, name, start, end, work=0):
    return [sid, parent, name, start, end, work]


# root 0..10 with children a 1..4 and b 5..9; a has c 2..3; b is fully
# covered by d 5..9; a second "leaf" span e sits at the top level.
TREE = [
    span(2, 1, "leaf", 2.0, 3.0, 7),
    span(1, 0, "mid", 1.0, 4.0),
    span(3, 4, "leaf", 5.0, 9.0, 5),
    span(4, 0, "mid", 5.0, 9.0),
    span(0, None, "root", 0.0, 10.0),
    span(5, None, "leaf", 11.0, 11.5),
]


def test_self_time_subtracts_direct_children_only():
    own = self_times(TREE)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 0.0, 5: 0.5})


def test_self_times_sum_to_top_level_wall():
    own = self_times(TREE)
    assert sum(own.values()) == pytest.approx(10.0 + 0.5)


def test_layer_totals_sum_self_time_calls_and_work():
    totals = layer_totals(TREE)
    assert totals["root"] == pytest.approx({"self_s": 3.0, "calls": 1, "work": 0})
    assert totals["mid"] == pytest.approx({"self_s": 2.0, "calls": 2, "work": 0})
    assert totals["leaf"] == pytest.approx({"self_s": 5.5, "calls": 3, "work": 12})


def test_covered_clips_and_merges_overlaps():
    assert covered((0.0, 10.0), [(-2.0, 1.0), (2.0, 5.0), (4.0, 6.0), (9.0, 12.0)]) \
        == pytest.approx(1.0 + 4.0 + 1.0)
    assert covered((0.0, 1.0), []) == 0.0


def test_layer_metrics_zero_for_layers_not_called():
    metrics = run.layer_metrics({}, 0.1)
    assert metrics["etf.gram_frame_macs_per_s"] == 0.0
    assert metrics["cli.import_s"] == 0.1


def test_every_span_name_feeds_a_metric():
    prefixes = {name for _, _, _, name, _ in WRAPPED}
    metrics = run.layer_metrics({name: {"self_s": 1.0, "calls": 1, "work": 1}
                                 for name in prefixes}, 0.0)
    for name in prefixes:
        assert any(key.startswith(name + "_") or key.startswith(name + ".")
                   for key, value in metrics.items() if value), name


def test_metric_names_and_units_are_well_formed():
    names = [w["name"] for w in run.SPEC["workloads"]]
    for table in (run.END_TO_END, run.PER_LAYER):
        names += list(table)
        for name, unit in table.items():
            assert METRIC_NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert len(names) == len(set(names))


def test_run_reports_exactly_the_declared_metrics():
    assert set(run.COMMAND_METRICS) | {"setup_s"} == set(run.END_TO_END)
    assert set(run.layer_metrics({}, 0.0)) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
