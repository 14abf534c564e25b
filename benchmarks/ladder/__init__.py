"""The ladder: one wall-clock benchmark for every layer a request crosses.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
