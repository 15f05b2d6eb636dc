"""Shared pytest settings.

Property tests run under one hypothesis profile: examples are derived from the
test itself (not a random seed), there is no per-example deadline, and the
example count is bounded so the suite stays fast and reproducible.
"""

from hypothesis import settings

settings.register_profile("motionscope", derandomize=True, deadline=None, max_examples=150,
                          database=None)
settings.load_profile("motionscope")
