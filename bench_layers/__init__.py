"""End-to-end and per-layer benchmark for the FL round loop.

Run as ``python3 -m bench_layers`` from the repository root; see
``bench_layers/README.md``. The package times the program under ``src/``
strictly from outside, through its public API, and changes none of it.
"""
