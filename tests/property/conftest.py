"""Hypothesis profiles for the property suite.

Two execution budgets, selected via the ``HYPOTHESIS_PROFILE``
environment variable (the CI workflow exports ``HYPOTHESIS_PROFILE=ci``;
local runs default to ``ci`` too, so the suite is always bounded):

* ``ci``  — capped example counts, derandomized (no flaky shrink
  ordering between runs), no deadline (shared runners jitter);
* ``dev`` — a larger randomized budget for local exploration.

Individual tests may raise their own budget with an explicit
``@settings(max_examples=...)``.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
