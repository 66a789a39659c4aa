"""The repository benchmark (see run.py; workloads and metrics in catalog.py)."""
