"""Benchmark of the dipath_ramsey toolkit; entry point is run.py."""
