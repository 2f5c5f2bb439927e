"""Tests of the benchmark itself: inputs, tracing and the correctness gate.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import importlib

import pytest

from repro.core.controller import DifaneController
from repro.flowspace.batch import columnar_enabled, set_columnar
from perfbench import layers
from perfbench.bench import MODES, ModeRun, check, simulate
from perfbench.layers import TARGETS, Tracer
from perfbench.workloads import WORKLOADS, make_workload

TINY = 0.05


def _inputs(name, seed):
    """Everything a workload feeds the simulator over its first epochs."""
    workload = make_workload(name, seed, TINY)
    bursts = []
    for epoch in range(3):
        for timed in workload.bursts(epoch):
            bits = timed.batch.header_bits_list()
            bursts.append((timed.time, timed.switch, bits, list(timed.batch.flow_ids)))
    updates = [
        (epoch, op, rule.match.ternary, rule.priority)
        for epoch in range(workload.epochs)
        for op, rule in workload.updates(epoch)
    ]
    policy = [(rule.match.ternary, rule.priority) for rule in workload.rules]
    return bursts, updates, policy


def _originals():
    found = {}
    for _, where, names in TARGETS:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        for name in names:
            found[(where, name)] = vars(owner)[name]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    assert _inputs(name, 3)[0] != _inputs(name, 4)[0]


def test_acl_churn_updates_target_hot_flows():
    workload = make_workload("acl-churn", 1, TINY)
    planned = [op for epoch in range(workload.epochs) for op, _ in workload.updates(epoch)]
    assert planned.count("insert") == planned.count("delete") + 1 > 1
    hot = {workload.flows.headers[i] for i in workload.flows.hottest(1)}
    first_insert = next(
        rule for epoch in range(workload.epochs)
        for op, rule in workload.updates(epoch) if op == "insert"
    )
    assert any(first_insert.match.matches_bits(bits) for bits in hot)


def test_tracer_restores_every_wrapped_function():
    before = _originals()
    tracer = Tracer()
    simulate(make_workload("acl-churn", 1, TINY), tracer)
    assert _originals() == before
    assert tracer.calls and tracer.spans


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_fit_in_traced_wall(name):
    tracer = Tracer()
    traced, _ = simulate(make_workload(name, 2, TINY), tracer)
    assert sum(tracer.self_s.values()) <= traced.setup_s + traced.run_s
    assert all(value >= 0 for value in tracer.self_s.values())


def test_span_sample_stays_bounded(monkeypatch):
    monkeypatch.setattr(layers, "_SPAN_SAMPLE", 64)
    tracer = Tracer()
    simulate(make_workload("stream-hot", 1, TINY), tracer)
    assert 32 <= len(tracer.spans) <= 64


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(name, mode):
    previous = columnar_enabled()
    set_columnar(mode == "columnar")
    try:
        run = ModeRun(name, 5, mode, TINY)
        for _ in range(3):
            run.timed_pass()
        result = run.result(trace=True)
    finally:
        set_columnar(previous)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert len(result["pass_pkts_per_s"]) >= 3
    assert result["pkts_per_s"] >= max(result["pass_pkts_per_s"])
    assert 0.0 <= result["miss_ratio"] <= 1.0
    layers = result["layers"]
    assert ("flowspace.vectormatch.builds" in layers) == (mode == "columnar")
    assert layers["net.events.events"]["value"] > 0


def test_gate_reports_unwanted_drops():
    workload = make_workload("stream-hot", 1, TINY)
    result, dn = simulate(workload)
    assert result.problems == []
    result.drops = {"black-hole": 3, "policy-intent": 1}
    problems = check(result, dn, workload)
    assert any("drops outside policy-intent" in p for p in problems)
    assert any("conservation" in p for p in problems)
    assert result.failed == 3 + abs(result.offered - result.outcomes)


def test_oracle_spots_a_corrupted_authority_table():
    workload = make_workload("acl-churn", 1, TINY)
    _, dn = simulate(workload)
    assert workload.semantic_mismatches(dn) == 0
    for name in dn.controller.authority_switches:
        dn.switch(name).pipeline.authority.table.clear()
    assert workload.semantic_mismatches(dn) > 0


def test_oracle_spots_cache_entries_an_update_failed_to_flush(monkeypatch):
    monkeypatch.setattr(DifaneController, "_flush_caches", lambda self, predicate: 0)
    workload = make_workload("acl-churn", 1, TINY)
    _, dn = simulate(workload, oracle=False)
    assert workload.semantic_mismatches(dn) > 0


def test_digest_ignores_timing_but_not_counters():
    workload = make_workload("stream-thrash", 1, TINY)
    first, _ = simulate(workload)
    second, _ = simulate(workload)
    assert first.digest == second.digest
    second.evictions += 1
    assert first.digest != second.digest
