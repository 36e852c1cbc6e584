"""Makes the tests directory importable so suites can share oracles.

Hypothesis runs derandomized, without a deadline and without an example
database, so every run draws the same examples and no example fails on a
slow machine.
"""

from hypothesis import settings

settings.register_profile("ringhopf", derandomize=True, deadline=None, database=None)
settings.load_profile("ringhopf")
