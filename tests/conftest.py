"""Suite-wide test settings.

Every hypothesis test draws the same examples on every run and from every
checkout: examples are derived from the test itself, not from a random seed
or a saved example database.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("simrad", derandomize=True, database=None)
settings.load_profile("simrad")
