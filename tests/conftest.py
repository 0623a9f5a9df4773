"""Test-wide settings: Hypothesis runs the same examples on every run and
writes nothing into the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("waug", derandomize=True, database=None, deadline=None)
settings.load_profile("waug")


def pytest_configure(config):
    # With no example database, Hypothesis still caches the constants it
    # reads from source files, already while tests are collected; the cache
    # goes to a directory removed at the end of the run.
    home = tempfile.TemporaryDirectory(prefix="waug-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
