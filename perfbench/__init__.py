"""Layer-ledger benchmark of the polarization-energy stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout.  See
``perfbench/README.md`` for the workloads, the metric glossary and the
map from each per-layer metric to the end-to-end metric it moves.
"""
