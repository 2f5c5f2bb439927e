"""Simulator benchmark: one workload, both data paths, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-hot --seed 1 --seconds 30 --trace 0

Each data path (``scalar``, ``columnar``) runs in its own child
interpreter; the two take turns, one pass of the workload's
seed-generated schedule each, for ``--seconds``, and every pass is
checked (see ``perfbench/bench.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of an
extra traced pass with ``--trace 1``.  Work is batch: throughput is
offered packets per host second of the event loop at the workload's
fixed schedule size, and both throughput and set-up time are taken with
other load on the host filtered out (``bench.interference_free_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import MODES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
SPANS_DIR = OUT_DIR / "spans"
#: The children get ``--seconds`` of turns plus this much for what the
#: turns do not cover: building the workload, the oracle, the last
#: round's overrun and the traced passes.  Then every child is killed.
MARGIN_S = 90
#: Rounds of turns run even when ``--seconds`` is up, so the per-slice
#: minima always have a few passes to choose from.
MIN_PASSES = 3

#: Medians of 10 seeds (1-10) when the benchmark was introduced (2-core
#: x86-64 VM, Python 3.11, --seconds 30).  That host was shared and its
#: speed moved by up to 1.7x within a minute, so compare ratios between
#: paths rather than absolutes.
BASELINE = {
    "stream-hot": {
        "pkts_per_s.scalar": 33802, "peak_rss_mb.scalar": 71.3, "miss_ratio.scalar": 0.01834,
        "pkts_per_s.columnar": 30662, "peak_rss_mb.columnar": 71.5,
        "miss_ratio.columnar": 0.01834, "setup_s": 0.00328,
    },
    "stream-thrash": {
        "pkts_per_s.scalar": 9700, "peak_rss_mb.scalar": 71.5, "miss_ratio.scalar": 0.6559,
        "pkts_per_s.columnar": 6657, "peak_rss_mb.columnar": 72.0,
        "miss_ratio.columnar": 0.9127, "setup_s": 0.0121,
    },
    "acl-churn": {
        "pkts_per_s.scalar": 4055, "peak_rss_mb.scalar": 64.6, "miss_ratio.scalar": 0.371,
        "pkts_per_s.columnar": 2459, "peak_rss_mb.columnar": 65.8,
        "miss_ratio.columnar": 0.3709, "setup_s": 0.0999,
    },
}
KNOWN_GAPS = (
    "columnar is slower than scalar everywhere (0.91x stream-hot, 0.69x stream-thrash, "
    "0.61x acl-churn)",
    "the paths' miss ratios diverge under cache pressure (stream-thrash 0.66 scalar "
    "vs 0.91 columnar); they should agree",
)


class Child:
    """One data path's ``perfbench.bench`` process, driven line by line."""

    def __init__(self, workload: str, seed: int, mode: str, trace: bool):
        config = {"workload_name": workload, "seed": seed, "mode": mode, "trace": trace}
        if trace:
            config["spans_dir"] = str(SPANS_DIR)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.mode = mode
        self.stderr_path = OUT_DIR / f"{mode}.stderr"
        self.stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.bench", json.dumps(config)],
            cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
        )

    def reply(self, expected: Optional[str] = None) -> str:
        line = self.proc.stdout.readline().strip()
        if not line or (expected is not None and line != expected):
            self.proc.wait()
            raise RuntimeError(
                f"{self.mode} child failed ({self.proc.returncode}):\n"
                + self.stderr_path.read_text()
            )
        return line

    def run_pass(self) -> None:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        self.reply("ok")

    def finish(self) -> dict:
        self.proc.stdin.close()  # the end of input ends the run
        return json.loads(self.reply())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()


def run_modes(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Start one child per data path, one after another, and let them take
    turns, one timed pass each, for ``seconds`` (and at least
    :data:`MIN_PASSES` rounds); then collect each child's result.

    Taking turns spreads both paths over the whole run, so a stretch in
    which the host is slow lands on both instead of on one path.
    """
    children = []
    watchdog = threading.Timer(
        seconds + MARGIN_S, lambda: [child.proc.kill() for child in children]
    )
    watchdog.start()
    try:
        for mode in MODES:
            children.append(Child(workload, seed, mode, trace))
            children[-1].reply("ready")
        started = time.perf_counter()
        rounds = 0
        while rounds < MIN_PASSES or time.perf_counter() - started < seconds:
            for child in children:
                child.run_pass()
            rounds += 1
        return {child.mode: child.finish() for child in children}
    finally:
        watchdog.cancel()
        for child in children:
            child.stop()


def end_to_end(results: dict) -> dict:
    metrics = {}
    for mode, result in results.items():
        metrics[f"pkts_per_s.{mode}"] = (result["pkts_per_s"], "packets/s")
        metrics[f"peak_rss_mb.{mode}"] = (result["peak_rss_mb"], "MB")
        metrics[f"miss_ratio.{mode}"] = (result["miss_ratio"], "ratio")
    # The fastest build of either child, for the reason given in
    # bench.interference_free_s: other load only ever adds time.
    setup = [s for result in results.values() for s in result["setup_s"]]
    metrics["setup_s"] = (min(setup), "s")
    return metrics


def per_layer(results: dict) -> dict:
    return {
        f"{name}.{mode}": (entry["value"], entry["unit"])
        for mode, result in results.items()
        for name, entry in result["layers"].items()
    }


def report(workload: str, seed: int, results: dict, metrics: dict, trace: bool) -> None:
    """The human-readable part of the output (everything but the last line)."""
    print(f"workload {workload}  seed {seed}")
    for mode, result in results.items():
        samples = ", ".join(f"{v:.0f}" for v in result["pass_pkts_per_s"])
        print(f"  {mode:8s} offered/pass {result['offered_per_pass']}  "
              f"hit ratio {result['hit_ratio']:.4f}  drops {result['drops']}  "
              f"digest {result['digest']}  passes pkt/s [{samples}]")
        for problem in result["problems"]:
            print(f"  {mode:8s} CHECK FAILED: {problem}")
    if trace:
        for mode, result in results.items():
            print(f"\n  layer table ({workload}, {mode}; traced wall "
                  f"{result['traced_wall_s']:.3f} s)")
            print(f"    {'metric':36s} {'value':>14s} {'unit':6s} should move")
            for name, entry in result["layers"].items():
                print(f"    {name:36s} {entry['value']:14.6g} {entry['unit']:6s} "
                      f"{entry['moves']}")
        return
    baseline = BASELINE.get(workload, {})
    print(f"\n  {'metric':22s} {'value':>14s} {'unit':10s} {'baseline':>14s}")
    for name, (value, unit) in metrics.items():
        base = baseline.get(name)
        base_text = f"{base:14.6g}" if base is not None else f"{'-':>14s}"
        print(f"  {name:22s} {value:14.6g} {unit:10s} {base_text}")
    print("  known gaps at the baseline: " + "; ".join(KNOWN_GAPS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    try:
        results = run_modes(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, OSError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    metrics = per_layer(results) if trace else end_to_end(results)
    report(args.workload, args.seed, results, metrics, trace)
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
