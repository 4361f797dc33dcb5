"""Suite-wide settings: property tests draw a fixed, bounded set of examples.

`derandomize=True` seeds Hypothesis from each test's source, so every run of
the suite checks the same examples; `database=None` keeps it from writing an
example database into the checkout.
"""
from hypothesis import settings

settings.register_profile("dualgeo", derandomize=True, max_examples=30, database=None, deadline=None)
settings.load_profile("dualgeo")
