"""Benchmark of the quality-filter + PII-scrub engine (see README.md)."""
