"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` runs more examples of every property that does not
set its own count; the byte-determinism properties are what guard the float
sums across interpreter versions. Without the variable, Hypothesis's own
defaults apply.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
