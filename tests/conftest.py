"""Shared test settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite tries the same examples and a pass or
failure does not depend on an earlier run or on chance.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
