"""Simulator benchmark: workloads, per-layer tracing and the runner."""
