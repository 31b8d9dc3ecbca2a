"""Self-tests of the benchmark's helpers: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import sys
import time
import types

import pytest

from run import BENCH, ROOT, check_output, end_to_end, layer_metrics, run_list, tail_rank
from tracer import Target, Tracer
from workloads import LIGHT, TAIL, WORKLOADS, Request


def test_tail_rank_keeps_ten_samples_beyond():
    assert tail_rank(48) == (37, pytest.approx(100 * 38 / 48))
    assert tail_rank(11) == (0, pytest.approx(100 / 11))
    # fewer than 11 samples: no percentile has ten beyond it, use the maximum
    assert tail_rank(10) == (9, 100.0)
    assert tail_rank(1) == (0, 100.0)
    for n in range(11, 200):
        i, _ = tail_rank(n)
        assert n - 1 - i == 10


def test_end_to_end_scales_each_request_by_its_host_speed():
    records = [
        {"wall_s": 1.0, "cpu_s": 0.8, "rss_mb": 20.0, "speed": 1.5, "error": None},
        {"wall_s": 2.0, "cpu_s": 1.9, "rss_mb": 30.0, "speed": 0.5, "error": None},
        {"error": "not started: run deadline"},
    ]
    metrics, info = end_to_end(records, 3.25, [0.1, 0.3, 0.2])
    assert metrics["wall_s"] == pytest.approx(1.5 + 1.0 + 0.25)  # time between requests unscaled
    assert metrics["cpu_s"] == pytest.approx(1.2 + 0.95)
    assert metrics["req_p50_s"] == pytest.approx(1.25)
    assert metrics["req_tail_s"] == pytest.approx(1.5)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"] == 30.0
    assert info["raw"]["wall_s"] == pytest.approx(3.25)
    assert info["raw"]["req_tail_s"] == pytest.approx(2.0)
    assert info["samples"] == 2


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(seconds, children=()):
        clock.now += seconds
        for name, child in children:
            tracer.call(name, child, (), {})
        return None

    # outer: 1 s own work, then two sibling children; the second has a
    # nested grandchild
    leaf = lambda: work(0.5)  # noqa: E731
    child_a = lambda: work(2.0)  # noqa: E731
    child_b = lambda: work(3.0, [("leaf", leaf)])  # noqa: E731
    tracer.call("outer", lambda: work(1.0, [("a", child_a), ("b", child_b)]), (), {})

    self_s = {n: ss for (n, _p), (_c, _s, ss) in tracer.agg.items()}
    total = {n: s for (n, _p), (_c, s, _ss) in tracer.agg.items()}
    assert total == {"outer": 6.5, "a": 2.0, "b": 3.5, "leaf": 0.5}
    assert self_s == {"outer": 1.0, "a": 2.0, "b": 3.0, "leaf": 0.5}
    assert {p for (_n, p) in tracer.agg} == {None, "outer", "b"}


def test_recursive_total_counts_outermost_calls_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def rec(k):
        clock.now += 1.0
        if k:
            tracer.call("rec", rec, (k - 1,), {})

    tracer.call("rec", rec, (2,), {})
    assert tracer.outer["rec"] == 3.0
    assert tracer.agg[("rec", None)] == [1, 3.0, 1.0]
    assert tracer.agg[("rec", "rec")] == [2, 3.0, 2.0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeded_draw_is_deterministic_and_seed_dependent(workload):
    make = WORKLOADS[workload]
    assert make(3, 25) == make(3, 25)
    assert len({tuple(make(seed, 25)) for seed in range(1, 6)}) > 1


def test_expand_sources_come_first_and_pool_is_covered():
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    for seed in range(20):
        seen = set()
        for req in WORKLOADS["compute"](seed, 25):
            assert req.source is None or req.source in seen
            seen.add(req.key)
    assert {r.key for r in LIGHT + TAIL} == set(expected["compute"])
    assert set(expected["checks"]) == {r.key for r in WORKLOADS["verify"](1, 32)} | {"oracle"}


def test_corrupted_digest_counts_as_failure(tmp_path):
    req = LIGHT[0]
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    records, _ = run_list([req], expected, str(tmp_path / "good"), time.monotonic() + 60, True, False)
    assert records[0]["error"] is None
    exp = expected["compute"][req.key]
    bad = {"compute": {req.key: {"rc": exp["rc"], "sha256": "0" * 64}}, "checks": {}}
    records, _ = run_list([req], bad, str(tmp_path / "bad"), time.monotonic() + 60, True, False)
    assert records[0]["error"] == "stdout digest mismatch"


def test_verify_output_checks():
    req = Request("shapes", ("verify", "--suite", "shapes"), check="checks")
    expected = {"checks": {"shapes": ["shapes/a", "shapes/b"]}}
    good = b"PASS shapes/a\nPASS shapes/b\n2/2 checks passed\n"
    assert check_output(req, 0, good, expected) is None
    assert check_output(req, 1, good, expected) is not None
    assert check_output(req, 0, b"PASS shapes/a\nFAIL shapes/b\n1/2 checks passed\n", expected)
    assert check_output(req, 0, b"PASS shapes/a\n1/1 checks passed\n", expected)


def test_missing_wrapped_name_is_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    a.f = f
    b.f = f  # bound by name in a second module, as `from .a import f` does
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer()
    targets = (Target("a", "f", "a.f"), Target("a", "gone", "a.gone"), Target("c", "f", "c.f"))
    absent = tracer.install(targets, package="fakepkg")
    assert absent == ["a.gone", "c.f"]
    assert a.f is b.f and a.f is not f
    assert b.f(1) == 2
    report = tracer.report()
    report.update(startup_s=0.1, absent=absent, strictify=None)
    values, missing = layer_metrics(["a.f.calls", "a.gone.calls", "a.gone.self_s",
                                     "gammaring.strictify.hit_ratio"],
                                    [report], [], "/nonexistent", 0.0)
    assert values == {"a.f.calls": 1}
    assert missing == ["a.gone.calls", "a.gone.self_s", "gammaring.strictify.hit_ratio"]


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "layers.json")) as fh:
        layers = json.load(fh)["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers)

