"""One hypothesis profile for every property test in the suite.

Searches are derandomized, so a run is reproducible and a failure reruns
the same examples; there is no deadline, so a loaded machine cannot fail a
slow example; and no example database is written. Each test's own
``@settings`` only sets ``max_examples``.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
