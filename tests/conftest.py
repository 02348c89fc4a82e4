"""Tier-1 runs hypothesis derandomized: every run draws the same examples, so a test that catches a fault catches it every time.

Each test's own @settings still sets its max_examples and deadline.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
