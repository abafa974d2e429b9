"""Test settings shared by every module.

Hypothesis draws the same examples on every run (``derandomize``), so the
outcome of a test run depends only on the code under test; each test keeps
its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
