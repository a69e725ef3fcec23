"""Benchmark for zerosep; see run.py."""
