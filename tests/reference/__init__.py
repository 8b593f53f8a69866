"""Frozen reference implementations: the oracles of the agreement tests.

Each module here keeps the original one-unit-at-a-time form of a hot-path
stage, exactly as it ran before the production code batched it:

* ``coding`` — the per-branch Viterbi add-compare-select and the
  bit-serial convolutional encoder and scrambler;
* ``dsp`` — the scalar CORDIC engine, one Python-float micro-rotation at
  a time;
* ``mimo`` — the per-matrix float and CORDIC Givens QR and back
  substitution, the per-subcarrier LTS division and the per-subcarrier
  MMSE solve;
* ``modulation`` — the per-symbol hard and soft demapper;
* ``core`` — the per-symbol transmit loop (map, pilot insertion, IFFT),
  the per-slot LTS FFTs, the per-symbol FFT/detect/pilot equalise loop,
  one-symbol pilot correction and a fully serial receive.

``tests/test_hot_path_agreement.py`` asserts the production stages equal
these bit for bit.

Nothing under ``src/`` may import this package; a test enforces that.
The code here is frozen: change it only to fix a bug in the oracle itself.
"""
