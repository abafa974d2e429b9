"""Test settings shared by every module.

Hypothesis draws the same examples on every run (``derandomize``), so the
outcome of a test run depends only on the code under test; each test keeps
its own ``max_examples``.  The checkout's ``src`` goes at the end of
``sys.path``, so a ``PYTHONPATH`` naming another tree's ``src`` wins.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
