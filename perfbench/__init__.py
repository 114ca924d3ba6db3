"""Benchmark of the scanpath package: end-to-end workloads and a per-layer trace."""
