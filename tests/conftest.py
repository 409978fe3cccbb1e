"""Shared test settings.

Hypothesis runs derandomized (examples are a function of the test's
source), with no example database, no per-example deadline and a bounded
example count, so the suite stays deterministic and fast on a loaded
machine.
"""

from hypothesis import settings

settings.register_profile(
    "rbcscan", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("rbcscan")
