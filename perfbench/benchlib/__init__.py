"""Library behind perfbench/run.py: workloads, spans, checks, probe."""
