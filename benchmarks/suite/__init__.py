"""The repository benchmark: simulate -> detect and capture -> serve.

See ``benchmarks/suite/README.md`` and ``python -m benchmarks.suite
--help``.  Importing this package imports nothing from ``repro``.
"""
