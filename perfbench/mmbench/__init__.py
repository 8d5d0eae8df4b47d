"""Benchmark harness for the mmchat package: seeded inputs, the three
workloads with their correctness gates, and span tracing of the package's
public callables."""
