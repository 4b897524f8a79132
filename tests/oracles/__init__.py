"""Frozen reference implementations the shipped code is checked against.

``clusters_reference`` and ``sweep_reference`` are the scalar SC/CC,
sharing-graph and prediction-matrix pipelines; ``kernels`` holds the
row-by-row DTW/edit DPs.  Nothing under ``src/`` imports them.
"""
