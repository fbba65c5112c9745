"""Shared test settings.

Property tests draw their examples from a fixed seed and carry no
per-example deadline, so a run gives the same result on a slow or busy
machine as on a fast one.
"""

from hypothesis import settings

settings.register_profile("cimwalk", derandomize=True, deadline=None)
settings.load_profile("cimwalk")
