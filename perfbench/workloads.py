"""Seed-generated inputs for the simulator benchmark.

Three workloads, each a fixed schedule in simulated time built from one
seed, so a run is batch work: the benchmark times how long the simulator
takes to get through the schedule.

* ``stream-hot`` — the M1 streaming generator (10^6 virtual hosts, Zipf
  alpha=1, diurnal load, flash crowds, mobility) over a small policy with
  a cache larger than the working set: almost every packet hits the
  ingress cache, so host time goes to per-packet data-plane work.
* ``stream-thrash`` — the same generator with M1's 64 rules per switch
  and a 16-entry cache: redirects, cache-rule installs, evictions,
  expiry scans and columnar matcher rebuilds dominate.
* ``acl-churn`` — a ClassBench ACL over the streaming topology with
  Zipf traffic over its own flows and policy inserts/deletes aimed at
  the hot flows: win-region clipping (``core.cachegen``), cache
  invalidation and the controller update path.

Each workload exposes ``build()`` (the timed set-up: one
:meth:`DifaneNetwork.build`), ``bursts(epoch)`` (one epoch's traffic),
``updates(epoch)`` (policy changes due in that epoch) and
``semantic_mismatches(dn)`` (an oracle check of the evolved policy).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from repro.core.controller import DifaneNetwork
from repro.experiments.dynamics import _consistent, _distributed_lookup
from repro.flowspace.action import Forward
from repro.flowspace.batch import PacketBatch
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.rule import Match, Rule
from repro.flowspace.table import RuleTable
from repro.flowspace.ternary import Ternary
from repro.parallel.seeds import derive_seed
from repro.workloads import streaming
from repro.workloads.batches import TimedBatch
from repro.workloads.classbench import generate_classbench
from repro.workloads.traffic import flow_headers_for_policy
from repro.workloads.zipf import zipf_cdf

__all__ = ["WORKLOADS", "make_workload", "acl_bursts"]

LAYOUT = FIVE_TUPLE_LAYOUT
HOSTS = 1_000_000
#: Headers the ``acl-churn`` oracle checks: the most popular flows and
#: uniform draws over the header space.
HOT_PROBES = 1000
RANDOM_PROBES = 300


class StreamWorkload:
    """An M1 stream (:class:`repro.workloads.streaming.StreamSpec`)."""

    def __init__(
        self, seed: int, rules_per_switch: int, cache_capacity: int, epochs: int
    ):
        self.seed = seed
        self.spec = streaming.StreamSpec(
            hosts=HOSTS,
            epochs=epochs,
            burst_size=512,
            rules_per_switch=rules_per_switch,
            seed=seed,
        )
        self.cache_capacity = cache_capacity
        self.epochs = epochs
        self.epoch_interval_s = self.spec.epoch_interval_s
        self.topology = streaming.streaming_topology(self.spec)
        self.rules = streaming.streaming_policy(self.spec, LAYOUT)

    def build(self) -> DifaneNetwork:
        return DifaneNetwork.build(
            self.topology,
            self.rules,
            LAYOUT,
            authority_switches=self.spec.authority_names(),
            cache_capacity=self.cache_capacity,
            loss_seed=self.seed,
        )

    def bursts(self, epoch: int) -> List[TimedBatch]:
        # Resolved through the module at call time so a traced run can wrap it.
        return streaming.epoch_bursts(self.spec, epoch, LAYOUT)

    def updates(self, epoch: int) -> List[Tuple[str, Rule]]:
        return []

    def semantic_mismatches(self, dn: DifaneNetwork) -> int:
        return 0


#: ``acl-churn`` runs over one fixed ClassBench ACL and flow table, as a
#: published filter set and trace would be; ``--seed`` picks the packet
#: draws, the ingress switches and the policy updates.  Deriving the ACL
#: from ``--seed`` too made throughput swing 2x between seeds, because
#: the share of dropped packets follows the verdicts of the few hottest
#: flows.
ACL_REFERENCE_SEED = 0


class AclFlows:
    """The flow table behind ``acl-churn``: per-flow header columns,
    ingress switch and a Zipf(1) popularity over flows."""

    def __init__(self, headers: List[int], ingress: np.ndarray, seed: int):
        self.headers = headers
        self.ingress = ingress
        self.seed = seed
        unpacked = [LAYOUT.unpack(bits) for bits in headers]
        self.columns: Dict[str, np.ndarray] = {
            spec.name: np.array([fields[spec.name] for fields in unpacked], dtype=np.uint64)
            for spec in LAYOUT.fields
        }
        # Popularity rank is decoupled from draw order so the hot flows
        # spread across the policy instead of following rule priority.
        self.rank_to_flow = np.random.default_rng(
            derive_seed(ACL_REFERENCE_SEED, "acl-rank")
        ).permutation(len(headers))
        self.cdf = zipf_cdf(len(headers), 1.0)

    def hottest(self, count: int) -> List[int]:
        """Flow indices of the ``count`` most popular flows."""
        return [int(i) for i in self.rank_to_flow[:count]]


def acl_bursts(
    flows: AclFlows,
    epoch: int,
    packets: int,
    time: float,
    switch_names: List[str],
) -> List[TimedBatch]:
    """One epoch of ``acl-churn`` traffic: ``packets`` Zipf draws over
    the flow table, grouped into one batch per ingress switch."""
    rng = np.random.default_rng(derive_seed(flows.seed, ("acl-epoch", epoch)))
    chosen = flows.rank_to_flow[np.searchsorted(flows.cdf, rng.random(packets))]
    ingress = flows.ingress[chosen]
    out: List[TimedBatch] = []
    for switch in np.unique(ingress).tolist():
        picked = chosen[ingress == switch]
        batch = PacketBatch.from_fields(
            LAYOUT,
            len(picked),
            flow_ids=picked.tolist(),
            **{name: column[picked] for name, column in flows.columns.items()},
        )
        out.append(TimedBatch(time, switch_names[switch], batch))
    return out


class AclChurnWorkload:
    """ClassBench ACL + hot-flow policy churn over the stream topology."""

    packets_per_epoch = 256
    update_every = 4
    cache_capacity = 256

    def __init__(self, seed: int, rules: int, flows: int, epochs: int):
        self.seed = seed
        self.epochs = epochs
        self.spec = streaming.StreamSpec(hosts=HOSTS, authority_switches=4, seed=seed)
        self.epoch_interval_s = self.spec.epoch_interval_s
        self.topology = streaming.streaming_topology(self.spec)
        sinks = [self.spec.sink_name(i) for i in range(self.spec.edge_switches)]
        self.rules = generate_classbench(
            "acl", count=rules, seed=ACL_REFERENCE_SEED, layout=LAYOUT, egress_ports=sinks
        )
        headers = flow_headers_for_policy(
            self.rules, flows, seed=derive_seed(ACL_REFERENCE_SEED, "acl-flows"),
            weight_by_size=False,
        )
        ingress = np.random.default_rng(derive_seed(seed, "acl-ingress")).integers(
            0, self.spec.edge_switches, size=flows
        )
        self.flows = AclFlows(headers, ingress, seed)
        self.switch_names = [self.spec.edge_name(i) for i in range(self.spec.edge_switches)]
        self._updates = self._plan_updates(self.update_every, sinks)

    def _plan_updates(
        self, every: int, sinks: List[str]
    ) -> Dict[int, List[Tuple[str, Rule]]]:
        """Every ``every`` epochs insert a rule over the source/destination
        /24 pair of the next-hottest flow, and delete it ``every // 2``
        epochs later unless the schedule ends first.

        The rule outranks the whole ACL, so every insert flushes the
        cache entries serving that flow and every delete flushes the
        entries derived from the inserted rule.  The last insert stays,
        so the policy the oracle checks differs from the initial one.
        """
        rng = random.Random(derive_seed(self.seed, "acl-updates"))
        top = max(rule.priority for rule in self.rules) + 1
        epochs = range(1, self.epochs, every)
        hot = self.flows.hottest(len(epochs))
        plan: Dict[int, List[Tuple[str, Rule]]] = {}
        for n, epoch in enumerate(epochs):
            fields = LAYOUT.unpack(self.flows.headers[hot[n]])
            match = Match(
                LAYOUT,
                LAYOUT.pack_match(
                    nw_src=Ternary.from_prefix(fields["nw_src"], 24, 32),
                    nw_dst=Ternary.from_prefix(fields["nw_dst"], 24, 32),
                ),
            )
            rule = Rule(match, top + n, Forward(rng.choice(sinks)))
            plan.setdefault(epoch, []).append(("insert", rule))
            if epoch + every < self.epochs:
                plan.setdefault(epoch + every // 2, []).append(("delete", rule))
        return plan

    def build(self) -> DifaneNetwork:
        return DifaneNetwork.build(
            self.topology,
            self.rules,
            LAYOUT,
            authority_switches=self.spec.authority_names(),
            cache_capacity=self.cache_capacity,
            loss_seed=self.seed,
        )

    def bursts(self, epoch: int) -> List[TimedBatch]:
        time = self.spec.start_time + epoch * self.epoch_interval_s
        return acl_bursts(self.flows, epoch, self.packets_per_epoch, time, self.switch_names)

    def updates(self, epoch: int) -> List[Tuple[str, Rule]]:
        return self._updates.get(epoch, [])

    def semantic_mismatches(self, dn: DifaneNetwork) -> int:
        """Verdicts that differ from a single :class:`RuleTable` over the
        evolved policy.

        The :data:`HOT_PROBES` most popular flow headers plus
        :data:`RANDOM_PROBES` uniform headers are resolved at their
        partition's primary authority switch, as E9 does.  Each hot
        header is also looked up in its ingress switch's cache, where a
        rule an update failed to flush would keep serving the old
        verdict; a cache hit that disagrees counts as a mismatch too.
        """
        oracle = RuleTable(LAYOUT, dn.controller.policy)
        rng = random.Random(derive_seed(self.seed, "acl-oracle"))
        hot = self.flows.hottest(HOT_PROBES)
        probes = [self.flows.headers[i] for i in hot]
        probes += [rng.getrandbits(LAYOUT.width) for _ in range(RANDOM_PROBES)]
        mismatches = 0
        for bits in probes:
            if not _consistent(oracle.lookup_bits(bits), _distributed_lookup(dn, bits)):
                mismatches += 1
        for i in hot:
            bits = self.flows.headers[i]
            ingress = self.switch_names[self.flows.ingress[i]]
            cached = dn.switch(ingress).pipeline.cache.table.lookup_bits(bits)
            if cached is not None and not _consistent(oracle.lookup_bits(bits), cached):
                mismatches += 1
        return mismatches


#: name -> factory(seed, scale); ``scale`` shrinks the schedule for smoke tests.
WORKLOADS = {
    "stream-hot": lambda seed, scale=1.0: StreamWorkload(
        seed, rules_per_switch=8, cache_capacity=256, epochs=max(2, int(100 * scale))
    ),
    "stream-thrash": lambda seed, scale=1.0: StreamWorkload(
        seed, rules_per_switch=64, cache_capacity=16, epochs=max(2, int(40 * scale))
    ),
    "acl-churn": lambda seed, scale=1.0: AclChurnWorkload(
        seed,
        rules=max(50, int(3000 * scale)),
        flows=max(50, int(20000 * scale)),
        epochs=max(8, int(32 * scale)),
    ),
}


def make_workload(name: str, seed: int, scale: float = 1.0):
    """The workload ``name`` generated from ``seed``."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return factory(seed, scale)
