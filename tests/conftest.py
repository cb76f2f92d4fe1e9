"""Suite-wide test settings.

Every Hypothesis property draws the same examples on every run, seeded from
the test itself rather than from a fresh random seed or the untracked
``.hypothesis/`` example database, so two runs of the suite, on any two
checkouts, test the same inputs. Each test's own ``@settings`` (its
``max_examples`` or ``deadline``) still applies on top of this profile.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
