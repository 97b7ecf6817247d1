"""Shared test settings: one hypothesis profile for the whole suite.

Derandomized, with no deadline and a small example budget, so property
tests draw the same cases on every run and the suite stays fast.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=4, database=None)
settings.load_profile("tier1")
