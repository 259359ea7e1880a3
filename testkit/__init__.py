"""Test support for the test and benchmark suites: rigs, meters,
workload and load generators, the chaos proxy and the leak guard.

None of it ships: the ``repro`` package under ``src/`` is the audio
system alone.  pytest's ``pythonpath = ["."]`` (pyproject.toml) makes
this package importable from ``tests/`` and ``benchmarks/``.
"""
