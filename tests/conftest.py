"""Hypothesis profiles.  Local runs keep the library default; CI sets
HYPOTHESIS_PROFILE=ci, which draws ten times as many examples per property
and lifts the per-example deadline."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
