"""Hypothesis settings for the test suite.

With the ``CI`` environment variable set (GitHub Actions sets it on every
run), the ``ci`` profile derandomizes every property test, so a failure in
CI reproduces locally with ``CI=1`` and the same command.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
