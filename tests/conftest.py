"""Shared test settings.

Hypothesis draws its examples from a hash of each test, so CI and local
runs test the same inputs and a failure reproduces on rerun.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
