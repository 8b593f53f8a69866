"""Frozen reference implementations: the oracles of the agreement tests.

Each module here keeps the original one-unit-at-a-time form of a hot-path
stage — the per-branch Viterbi add-compare-select, the bit-serial
convolutional encoder and scrambler, and the per-matrix Givens QR and
back substitution — exactly as it ran before the production code batched
it.  ``tests/test_hot_path_agreement.py`` asserts the production stages
equal these bit for bit.

Nothing under ``src/`` may import this package; a test enforces that.
The code here is frozen: change it only to fix a bug in the oracle itself.
"""
