"""End-to-end and per-layer benchmark of the ESD reproduction.

Run ``python3 perfbench/run.py --workload paper-grid --seed 1
--seconds 55 --trace 0`` from the repository root; see README.md here.
"""
