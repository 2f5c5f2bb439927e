"""One data path of one workload: timed passes, the correctness gate and
an optional traced pass.

Run as ``python -m perfbench.bench '<json config>'`` from the repository
root with ``src`` on ``PYTHONPATH``; it runs one pass per ``pass`` line
on standard input and prints one JSON object at the end (see
:func:`main`).  ``run.py`` starts one such child per data path, one
after another, so each child's peak RSS belongs to that path alone, and
has them take turns, one pass each, so both paths are timed across the
whole run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.controller import DifaneNetwork, PartitionInvariantError
from repro.flowspace.batch import set_columnar
from repro.obs import fresh_run_context
from repro.obs.attribution import DROP_ATTRIBUTION
from repro.obs.sketch import DeliverySketchObserver

from perfbench.layers import LAYER_METRICS, COLUMNAR_ONLY, Tracer, layer_metrics
from perfbench.workloads import make_workload

__all__ = ["Pass", "simulate", "ModeRun"]

MODES = ("scalar", "columnar")
#: Extra builds before each timed pass, so ``setup_s`` is the fastest of
#: many builds spread over the whole run even when few passes fit the
#: time budget.
SETUP_BUILDS_PER_PASS = 3
DROP_BUCKETS = sorted({bucket for _, bucket in DROP_ATTRIBUTION} | {"unattributed"})
ALLOWED_DROPS = "policy-intent"


@dataclass
class Pass:
    """One simulated pass over a workload's whole schedule."""

    setup_s: float
    run_s: float
    #: Host seconds of each slice of the event loop between epoch starts.
    epoch_s: List[float]
    offered: int
    delivered: int
    drops: Dict[str, int]
    redirects: int
    cache_installs: int
    evictions: int
    outcomes: int
    hit_ratio: float
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Packets unaccounted for plus drops a policy did not ask for."""
        unaccounted = abs(self.offered - self.outcomes)
        return unaccounted + sum(
            count for bucket, count in self.drops.items() if bucket != ALLOWED_DROPS
        )

    @property
    def digest(self) -> str:
        """Hash of the simulated counters; repeats exactly for a seed."""
        counters = [self.offered, self.delivered, self.drops, self.redirects,
                    self.cache_installs, self.evictions]
        return hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()[:16]


def simulate(
    workload, tracer: Optional[Tracer] = None, oracle: bool = True
) -> Tuple[Pass, DifaneNetwork]:
    """Build, feed and run ``workload`` once, then check the outcome.

    The schedule is fed lazily, one epoch ahead, from inside the event
    loop (as the M1 soak does); policy updates fire half an epoch after
    their epoch's bursts.  With ``tracer`` the build and the run happen
    with every layer wrapped; the checks run after the wrappers are gone.
    ``oracle=False`` skips the policy oracle, the one slow check.
    """
    context = fresh_run_context(telemetry=True)
    with tracer if tracer is not None else contextlib.nullcontext():
        started = time.perf_counter()
        dn = workload.build()
        setup_s = time.perf_counter() - started
        network = dn.network
        scheduler = network.scheduler
        observer = DeliverySketchObserver()
        network.deliveries.stream_into(observer)
        scheduler.add_probe(observer.probe)
        interval = workload.epoch_interval_s
        offered = 0
        marks: List[float] = []

        def update(op: str, rule) -> None:
            getattr(dn.controller, f"{op}_rule")(rule)

        def feed(epoch: int) -> None:
            nonlocal offered
            marks.append(time.perf_counter())
            now = epoch * interval
            for timed in workload.bursts(epoch):
                offered += len(timed)
                observer.offer_destinations(timed.batch.flow_ids)
                dn.send_batch_at(timed.time, timed.switch, timed.batch)
            for op, rule in workload.updates(epoch):
                scheduler.schedule_at(now + interval / 2, update, op, rule)
            if epoch + 1 < workload.epochs:
                scheduler.schedule_at((epoch + 1) * interval, feed, epoch + 1)

        scheduler.schedule_at(0.0, feed, 0)
        started = time.perf_counter()
        marks.append(started)
        dn.run()
        ended = time.perf_counter()
        marks.append(ended)
    metrics = context.metrics
    drops = {}
    for bucket in DROP_BUCKETS:
        value = metrics.value("packets_dropped_total", reason=bucket)
        if value:
            drops[bucket] = int(value)
    result = Pass(
        setup_s=setup_s,
        run_s=ended - started,
        epoch_s=[b - a for a, b in zip(marks, marks[1:])],
        offered=offered,
        delivered=int(metrics.sum_counters("packets_delivered_total")),
        drops=drops,
        redirects=dn.total_redirects(),
        cache_installs=sum(s.cache_installs_received for s in dn.switches()),
        evictions=sum(s.cache.evicted for s in dn.switches()),
        outcomes=len(network.deliveries),
        hit_ratio=dn.cache_hit_rate(),
    )
    result.problems = check(result, dn, workload if oracle else None)
    return result, dn


def check(result: Pass, dn: DifaneNetwork, workload=None) -> List[str]:
    """The correctness gate: every violation, as one line each.

    ``workload`` (when given) also checks the evolved policy against its
    oracle."""
    problems = []
    dropped = sum(result.drops.values())
    if result.offered != result.delivered + dropped or result.offered != result.outcomes:
        problems.append(
            f"conservation: offered {result.offered} != delivered {result.delivered}"
            f" + dropped {dropped} (outcomes {result.outcomes})"
        )
    try:
        dn.controller.assert_all_partitions_owned()
    except PartitionInvariantError as error:
        problems.append(str(error))
    unwanted = {b: n for b, n in result.drops.items() if b != ALLOWED_DROPS}
    if unwanted:
        problems.append(f"drops outside {ALLOWED_DROPS}: {unwanted}")
    mismatches = workload.semantic_mismatches(dn) if workload is not None else 0
    if mismatches:
        problems.append(f"{mismatches} headers classify differently from the policy oracle")
    return problems


def timed_build(workload) -> float:
    """Host seconds of one build, from the heap state and observability
    context a pass's build starts from."""
    gc.collect()
    fresh_run_context(telemetry=True)
    started = time.perf_counter()
    workload.build()
    return time.perf_counter() - started


def interference_free_s(passes: List[Pass]) -> float:
    """Host seconds of one pass with other load on the host filtered out.

    Every pass does the same simulated work epoch by epoch (the digest
    check), and load from other processes only ever adds time, so the
    fastest time seen for each epoch slice is the best estimate of its
    cost; their sum stands for the whole pass.  A shared host's speed
    drifts by tens of percent over seconds, which moves a median of
    whole passes but leaves these per-slice minima steady.
    """
    return sum(min(times) for times in zip(*(p.epoch_s for p in passes)))


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


class ModeRun:
    """Timed passes of one workload on the current data path.

    :meth:`timed_pass` runs one pass (after a few extra set-up builds);
    :meth:`result` adds the optional traced pass, applies the gate across
    all passes and summarises them.
    """

    def __init__(self, workload_name: str, seed: int, mode: str, scale: float = 1.0):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        self.workload_name = workload_name
        self.seed = seed
        self.mode = mode
        self.workload = make_workload(workload_name, seed, scale)
        self.setup: List[float] = []
        self.passes: List[Pass] = []

    def timed_pass(self) -> None:
        self.setup += [timed_build(self.workload) for _ in range(SETUP_BUILDS_PER_PASS)]
        gc.collect()  # start every pass from the same heap state
        # Passes repeat exactly (the digest check in result()), so the
        # policy oracle needs to see only the first.
        self.passes.append(simulate(self.workload, oracle=not self.passes)[0])

    def result(self, trace: bool = False, spans_dir: Optional[Path] = None) -> dict:
        """The summary of the timed passes and, with ``trace``, the
        per-layer metrics of one extra traced pass."""
        timed = list(self.passes)
        passes = list(timed)
        layers = None
        traced_wall_s = None
        if trace:
            tracer = Tracer()
            gc.collect()
            traced, dn = simulate(self.workload, tracer, oracle=False)
            passes.append(traced)
            traced_wall_s = traced.setup_s + traced.run_s
            untraced_wall_s = statistics.median(p.setup_s + p.run_s for p in timed)
            values = layer_metrics(tracer, dn, traced_wall_s, untraced_wall_s)
            layers = {
                name: {"value": value, "unit": LAYER_METRICS[name][0],
                       "moves": LAYER_METRICS[name][2]}
                for name, value in values.items()
                if self.mode == "columnar" or not name.startswith(COLUMNAR_ONLY)
            }
            if spans_dir is not None:
                tracer.write_spans(
                    spans_dir / f"{self.workload_name}-{self.mode}-seed{self.seed}.jsonl"
                )

        problems = sorted({problem for p in passes for problem in p.problems})
        digests = sorted({p.digest for p in passes})
        if len(digests) > 1:
            problems.append(f"simulated counters differ across repeats: {digests}")
        first = passes[0]
        return {
            "mode": self.mode,
            "correct": not problems,
            "problems": problems,
            "attempted": sum(p.offered for p in passes),
            "failed": sum(p.failed for p in passes),
            "setup_s": self.setup + [p.setup_s for p in timed],
            "pkts_per_s": first.offered / interference_free_s(timed),
            "pass_pkts_per_s": [p.offered / p.run_s for p in timed],
            "miss_ratio": first.redirects / first.offered,
            "hit_ratio": first.hit_ratio,
            "offered_per_pass": first.offered,
            "drops": first.drops,
            "digest": digests[0],
            "peak_rss_mb": peak_rss_mb(),
            "traced_wall_s": traced_wall_s,
            "layers": layers,
        }


def main(argv: List[str]) -> int:
    """Serve one :class:`ModeRun` over standard input and output.

    Prints ``ready`` once the workload is built, then answers each
    ``pass`` line with one timed pass and ``ok``; any other line (or the
    end of input) ends the run, and the result is printed as JSON.
    """
    config = json.loads(argv[1])
    set_columnar(config["mode"] == "columnar")
    run = ModeRun(config["workload_name"], config["seed"], config["mode"])
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        run.timed_pass()
        print("ok", flush=True)
    spans_dir = config.get("spans_dir")
    result = run.result(config["trace"], Path(spans_dir) if spans_dir else None)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
