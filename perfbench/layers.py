"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of each simulator layer with
timing wrappers for the length of one traced pass, then puts the
originals back.  Each call becomes a span; a layer's self time is its
spans' duration minus the part covered by child spans, so nested layers
(pipeline -> tcam -> engine) do not double-count.  Self time and call
counts are kept in memory per function, plus a bounded, evenly thinned
sample of spans ``(name, start, end, parent)`` written out at the end.

:data:`LAYER_METRICS` names what each layer reports and which
end-to-end metric, on which workload, it should move.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "TARGETS", "LAYER_METRICS", "layer_metrics"]

#: (layer, "module:Class" or "module", attribute names) — every public
#: function wrapped in a traced pass.  Module-level functions are patched
#: in the namespace that calls them.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("workloads", "repro.workloads.streaming", ("epoch_bursts",)),
    ("workloads", "perfbench.workloads", ("acl_bursts",)),
    ("net.events", "repro.net.events:EventScheduler", ("run",)),
    ("net.simnet", "repro.net.simnet:SimNetwork", (
        "inject_batch_at_switch", "inject_burst_at_switch",
        "transmit", "transmit_batch", "forward_toward", "forward_batch_toward",
        "record_delivery", "record_delivery_batch", "record_drop", "record_drop_batch",
    )),
    ("net.links", "repro.net.links:Link", ("send", "send_batch")),
    ("switch.pipeline", "repro.switch.pipeline:DifanePipeline", (
        "lookup", "lookup_batch", "classify_batch",
    )),
    ("switch.tcam", "repro.switch.tcam:Tcam", (
        "install", "evict", "evict_if", "lookup", "lookup_batch", "match_batch",
    )),
    ("flowspace.engine", "repro.flowspace.engine:LinearEngine", (
        "lookup_bits", "batch_lookup", "add", "remove", "remove_if",
    )),
    ("flowspace.vectormatch", "repro.flowspace.vectormatch:VectorMatcher", (
        "__init__", "match",
    )),
    ("switch.cache", "repro.switch.cache:CacheManager", (
        "install", "expire", "invalidate_origin", "flush",
    )),
    ("core.authority", "repro.core.authority:DifaneSwitch", (
        "process", "process_batch", "process_packet_batch",
        "install_cache_rule", "install_cache_rules",
        "install_cache_rule_times", "install_cache_rules_times",
    )),
    ("core.cachegen", "repro.core.authority", (
        "generate_cache_rule", "generate_cache_rules",
    )),
    ("core.controller", "repro.core.controller:DifaneController", (
        "insert_rule", "delete_rule", "install_policy",
    )),
    ("core.partition", "repro.core.controller", ("partition_policy",)),
    ("obs", "repro.obs.sketch:DeliverySketchObserver", (
        "record", "block", "offer_destinations", "probe",
    )),
    ("obs", "repro.obs.telemetry:TelemetryRecorder", ("roll", "flush")),
]


#: Functions whose results are cache-rule fragments, counted into
#: ``core.cachegen.fragments``.
FRAGMENT_SOURCES = frozenset({
    "core.cachegen:generate_cache_rule",
    "core.cachegen:generate_cache_rules",
})

_SPAN_SAMPLE = 4096


class Tracer:
    """Wrap every :data:`TARGETS` function while installed.

    Use as a context manager; leaving the block restores every original
    attribute, also when the traced pass raises.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.fragments = 0
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self._stride = 1
        self._seen = 0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for layer, where, names in TARGETS:
                module_name, _, class_name = where.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                for name in names:
                    original = vars(owner)[name]
                    self._patches.append((owner, name, original))
                    setattr(owner, name, self._wrap(f"{layer}:{name}", original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every wrapped attribute (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the wrapper -------------------------------------------------------
    def _wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        counts_fragments = key in FRAGMENT_SOURCES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                self_s[key] += span - frame[1]
                calls[key] += 1
                if parent is not None:
                    parent[1] += span
                self._sample(key, start, end, parent[0] if parent else None)
            if counts_fragments and result is not None:
                self.fragments += len(result) if isinstance(result, list) else 1
            return result

        return traced

    def _sample(self, key, start, end, parent) -> None:
        """Keep every ``stride``-th span; when the sample is full, drop
        every other kept span and double the stride."""
        self._seen += 1
        if self._seen % self._stride:
            return
        self.spans.append((key, start, end, parent))
        if len(self.spans) > _SPAN_SAMPLE:
            self.spans = self.spans[1::2]
            self._stride *= 2

    # -- read-outs -----------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.partition(":")[0] == layer)

    def calls_of(self, *keys: str) -> int:
        return sum(self.calls[key] for key in keys)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for key, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": key, "start": start, "end": end, "parent": parent}
                ) + "\n")


#: metric -> (unit, better, what it should move).  Every metric is
#: reported per data path with a ``.scalar`` / ``.columnar`` suffix,
#: except ``flowspace.vectormatch.*``: only the columnar path builds a
#: vector matcher.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "workloads.gen_s": ("s", "lower", "pkts_per_s.* on stream-hot"),
    "net.events.events": ("count", "lower", "pkts_per_s.* on stream-hot"),
    "net.events.self_s": ("s", "lower", "pkts_per_s.* on stream-hot"),
    "net.simnet.self_s": ("s", "lower", "pkts_per_s.* on stream-hot"),
    "net.links.sends": ("count", "lower", "pkts_per_s.* on stream-hot"),
    "net.links.self_s": ("s", "lower", "pkts_per_s.* on stream-hot"),
    "switch.pipeline.calls": ("count", "lower", "pkts_per_s.* on stream-hot"),
    "switch.pipeline.self_s": ("s", "lower", "pkts_per_s.* on stream-hot"),
    "switch.pipeline.cache_hit_ratio": ("ratio", "higher", "pkts_per_s.* on stream-hot"),
    "switch.tcam.installs": (
        "count", "lower", "pkts_per_s.scalar on stream-thrash and acl-churn"),
    "switch.tcam.evict_if_calls": (
        "count", "lower", "pkts_per_s.scalar on stream-thrash and acl-churn"),
    "switch.tcam.self_s": (
        "s", "lower", "pkts_per_s.scalar on stream-thrash and acl-churn"),
    "flowspace.engine.self_s": ("s", "lower", "pkts_per_s.scalar on stream-thrash"),
    "flowspace.engine.remove_if_calls": (
        "count", "lower", "pkts_per_s.scalar on stream-thrash"),
    "flowspace.vectormatch.builds": (
        "count", "lower",
        "pkts_per_s.columnar on stream-thrash and acl-churn; none on stream-hot"),
    "flowspace.vectormatch.build_s": (
        "s", "lower",
        "pkts_per_s.columnar on stream-thrash and acl-churn; none on stream-hot"),
    "flowspace.vectormatch.match_s": (
        "s", "lower",
        "pkts_per_s.columnar on stream-thrash and acl-churn; none on stream-hot"),
    "switch.cache.installs": (
        "count", "lower", "pkts_per_s.* on stream-thrash; none on stream-hot"),
    "switch.cache.evictions": (
        "count", "lower", "pkts_per_s.* on stream-thrash; none on stream-hot"),
    "switch.cache.expire_calls": (
        "count", "lower", "pkts_per_s.* on stream-thrash; none on stream-hot"),
    "switch.cache.self_s": (
        "s", "lower", "pkts_per_s.* on stream-thrash; none on stream-hot"),
    "core.authority.redirects": (
        "count", "lower", "pkts_per_s.* and miss_ratio.* on stream-thrash"),
    "core.authority.self_s": (
        "s", "lower", "pkts_per_s.* and miss_ratio.* on stream-thrash"),
    "core.cachegen.calls": ("count", "lower", "pkts_per_s.* on acl-churn only"),
    "core.cachegen.fragments": ("count", "lower", "pkts_per_s.* on acl-churn only"),
    "core.cachegen.self_s": ("s", "lower", "pkts_per_s.* on acl-churn only"),
    "core.controller.updates": ("count", "lower", "pkts_per_s.* on acl-churn"),
    "core.controller.self_s": ("s", "lower", "pkts_per_s.* on acl-churn; setup_s"),
    "core.controller.cache_flushed": ("count", "lower", "pkts_per_s.* on acl-churn"),
    "core.partition.s": ("s", "lower", "setup_s on acl-churn"),
    "obs.self_s": ("s", "lower", "pkts_per_s.* on stream-hot"),
    "trace.overhead_ratio": ("ratio", "lower", "none (kept low)"),
}

COLUMNAR_ONLY = ("flowspace.vectormatch.",)


def layer_metrics(
    tracer: Tracer, dn, traced_wall_s: float, untraced_wall_s: float
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced pass over ``dn``."""
    calls = tracer.calls_of
    switches = dn.switches()
    return {
        "workloads.gen_s": tracer.layer_self_s("workloads"),
        "net.events.events": dn.network.scheduler.events_processed,
        "net.events.self_s": tracer.layer_self_s("net.events"),
        "net.simnet.self_s": tracer.layer_self_s("net.simnet"),
        "net.links.sends": calls("net.links:send", "net.links:send_batch"),
        "net.links.self_s": tracer.layer_self_s("net.links"),
        "switch.pipeline.calls": calls(
            "switch.pipeline:lookup", "switch.pipeline:lookup_batch",
            "switch.pipeline:classify_batch",
        ),
        "switch.pipeline.self_s": tracer.layer_self_s("switch.pipeline"),
        "switch.pipeline.cache_hit_ratio": dn.cache_hit_rate(),
        "switch.tcam.installs": calls("switch.tcam:install"),
        "switch.tcam.evict_if_calls": calls("switch.tcam:evict_if"),
        "switch.tcam.self_s": tracer.layer_self_s("switch.tcam"),
        "flowspace.engine.self_s": tracer.layer_self_s("flowspace.engine"),
        "flowspace.engine.remove_if_calls": calls("flowspace.engine:remove_if"),
        "flowspace.vectormatch.builds": calls("flowspace.vectormatch:__init__"),
        "flowspace.vectormatch.build_s": tracer.self_s["flowspace.vectormatch:__init__"],
        "flowspace.vectormatch.match_s": tracer.self_s["flowspace.vectormatch:match"],
        "switch.cache.installs": calls("switch.cache:install"),
        "switch.cache.evictions": sum(s.cache.evicted for s in switches),
        "switch.cache.expire_calls": calls("switch.cache:expire"),
        "switch.cache.self_s": tracer.layer_self_s("switch.cache"),
        "core.authority.redirects": dn.total_redirects(),
        "core.authority.self_s": tracer.layer_self_s("core.authority"),
        "core.cachegen.calls": calls(
            "core.cachegen:generate_cache_rule", "core.cachegen:generate_cache_rules"
        ),
        "core.cachegen.fragments": tracer.fragments,
        "core.cachegen.self_s": tracer.layer_self_s("core.cachegen"),
        "core.controller.updates": calls(
            "core.controller:insert_rule", "core.controller:delete_rule"
        ),
        "core.controller.self_s": tracer.layer_self_s("core.controller"),
        "core.controller.cache_flushed": dn.controller.cache_entries_flushed,
        "core.partition.s": tracer.layer_self_s("core.partition"),
        "obs.self_s": tracer.layer_self_s("obs"),
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
    }
