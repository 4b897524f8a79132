"""Frozen reference implementations the shipped code is checked against.

``clusters_reference`` and ``sweep_reference`` are the scalar SC/CC,
sharing-graph and prediction-matrix pipelines; ``kernels`` holds the
row-by-row DTW/edit DPs; ``joiners`` holds the per-page-pair joiners;
``brute_force`` computes O(n²) ground-truth pair sets; ``brinkhoff``
is the single-intersection node filter the iterative filter must beat.
Nothing under ``src/`` imports them.
"""
