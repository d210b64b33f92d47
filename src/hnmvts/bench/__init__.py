"""Benchmark harness: grid runner, statistics, configuration, CLI."""
