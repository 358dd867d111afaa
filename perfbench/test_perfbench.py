"""Tests of the benchmark's own helpers: spans, self time, summaries, names.

Run with: python3 -m pytest perfbench
"""

import importlib
import json
import multiprocessing
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import spans
import summary

ROOT = Path(__file__).resolve().parent.parent


def make_spans(rows):
    """rows: (start, end, parent) per span."""
    start, end, parent = zip(*rows)
    n = len(rows)
    return spans.Spans(name_id=np.zeros(n, dtype=np.int32), start=np.array(start, dtype=float),
                       end=np.array(end, dtype=float), parent=np.array(parent, dtype=np.int32),
                       raised=np.zeros(n, dtype=np.int8))


def test_self_time_of_nested_spans():
    sp = make_spans([(0.0, 10.0, -1), (1.0, 4.0, 0), (5.0, 7.0, 0), (2.0, 3.0, 1)])
    self_s = spans.self_times(sp)
    assert self_s.tolist() == [5.0, 2.0, 2.0, 1.0]
    assert spans.nesting_errors(sp, self_s) == 0


def test_self_time_counts_overlapping_children_once_and_flags_them():
    sp = make_spans([(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0)])
    self_s = spans.self_times(sp)
    assert self_s[0] == pytest.approx(5.0)
    assert spans.nesting_errors(sp, self_s) == 1


def test_self_time_clips_a_child_that_outlives_its_parent():
    sp = make_spans([(0.0, 10.0, -1), (8.0, 12.0, 0)])
    self_s = spans.self_times(sp)
    assert self_s[0] == pytest.approx(8.0)
    assert spans.nesting_errors(sp, self_s) == 1


def test_merge_shifts_parents_per_process():
    a = make_spans([(0.0, 2.0, -1), (0.5, 1.0, 0)])
    b = make_spans([(0.0, 3.0, -1), (1.0, 2.0, 0)])
    merged = spans.merge([a, b])
    assert merged.parent.tolist() == [-1, 0, -1, 2]
    assert spans.nesting_errors(merged, spans.self_times(merged)) == 0


def fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_records_parents_and_exceptions_and_restores():
    mod = fake_module()
    originals = (mod.inner, mod.outer)
    tracer = spans.Tracer()
    tracer.wrap(mod, "outer", "fake.outer")
    tracer.wrap(mod, "inner", "fake.inner")
    assert mod.outer(1) == 4  # disabled: no spans
    tracer.enabled = True
    assert mod.outer(1) == 4
    with pytest.raises(ValueError):
        mod.outer(-1)
    sp = tracer.spans()
    names = [tracer.names[i] for i in sp.name_id]
    assert names == ["fake.outer", "fake.inner", "fake.outer", "fake.inner"]
    assert sp.parent.tolist() == [-1, 0, -1, 2]
    assert sp.raised.tolist() == [0, 0, 1, 1]
    assert np.all(sp.end >= sp.start)
    tracer.restore()
    assert (mod.inner, mod.outer) == originals


def test_wrappers_on_the_package_are_removed_after_tracing():
    sys.path.insert(0, str(ROOT / "src"))
    before = {}
    for module_name, attr, _ in layers.TRACED:
        module = importlib.import_module(module_name)
        before[(module_name, attr)] = getattr(module, attr, None)
    tracer = spans.Tracer()
    layers.install(tracer)
    assert any(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
    tracer.restore()
    for (module_name, attr), original in before.items():
        assert getattr(importlib.import_module(module_name), attr) is original


def test_forked_worker_spans_reach_the_parent(tmp_path):
    tracer = spans.Tracer(worker_dir=tmp_path)
    tracer.wrap(summary, "median", "summary.median")
    tracer.enabled = True
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            assert pool.submit(summary.median, [3.0, 1.0, 2.0]).result(timeout=60) == 2.0
    finally:
        tracer.restore()
    parts = tracer.take_worker_spans()
    assert len(parts) == 1 and len(parts[0]) == 1
    assert tracer.names[parts[0].name_id[0]] == "summary.median"
    assert len(tracer.spans()) == 0
    assert list(tmp_path.iterdir()) == []


def test_summary_reports_median_and_the_tail_with_ten_samples_beyond():
    assert summary.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    assert summary.summarize([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "n": 4}
    assert "p90" not in summary.summarize(range(99))
    s100 = summary.summarize(range(1, 101))
    assert s100["p90"] == 90 and s100["n"] == 100 and "p99" not in s100
    assert summary.summarize(range(1, 1001))["p99"] == 990
    assert summary.summarize(range(1, 10001))["p99.9"] == 9990
    assert summary.describe(s100) == "p50 50.5 (p90 90), n=100"


def test_metric_names_are_valid_and_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for name, *_ in e2e + per_layer:
        assert summary.valid_name(name), name
    assert not summary.valid_name("bad name")
    assert not summary.valid_name(".leading-dot")
