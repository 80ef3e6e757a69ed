"""Shared test setup: one hypothesis profile and a forward-pass counter.

Hypothesis searches are derandomized, so a run is reproducible and a
failure reruns the same examples; there is no deadline, so a loaded machine
cannot fail a slow example; and no example database is written. Each
test's own ``@settings`` only sets ``max_examples``.
"""

import pytest

import sswim.model

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


@pytest.fixture
def forward_passes(monkeypatch):
    """A list that grows by one entry per forward pass of the model objective."""
    calls = []
    forward = sswim.model._forward

    def counting(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(sswim.model, "_forward", counting)
    return calls
