"""Capture analysis shared by the tests, the benchmarks and perfbench."""
