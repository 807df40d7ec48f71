"""Hypothesis profiles, and the ``writes`` fixture.

``HYPOTHESIS_PROFILE=ci`` runs more examples of every property that does not
set its own count; the byte-determinism properties are what guard the float
sums across interpreter versions. Without the variable, Hypothesis's own
defaults apply.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

import teammem.disk

settings.register_profile("ci", max_examples=1000)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture
def writes(monkeypatch):
    """Every file write from here on, in order, as ``(op, path, text)``.

    ``op`` is ``"append"`` or ``"replace"``: the function of
    :mod:`teammem.disk` that wrote ``text`` to ``path``. A write is recorded
    once it has landed.
    """
    recorded = []

    def recording(op):
        real = getattr(teammem.disk, op)

        def write(path, text):
            real(path, text)
            recorded.append((op, Path(path), text))

        return write

    for op in ("append", "replace"):
        monkeypatch.setattr(teammem.disk, op, recording(op))
    return recorded
