"""Hypothesis profiles and the ``slow`` marker.  Local runs keep the library
default; CI sets HYPOTHESIS_PROFILE=ci, which draws ten times as many examples
per property and lifts the per-example deadline.  The marker is registered
here, not in pyproject.toml, so a copy of tests/ run outside the checkout
knows it too."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running full-scale benchmark")
