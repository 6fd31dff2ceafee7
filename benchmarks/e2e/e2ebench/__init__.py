"""The repo benchmark: five workloads, measured from outside the program.

Nothing here is imported by ``src/``; every layer is timed by calling
its public functions.  ``benchmarks/e2e/run.py`` is the one entry point;
``benchmarks/e2e/README.md`` records why each workload exists.
"""
