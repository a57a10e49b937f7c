"""Hypothesis profiles of the test suite.

``tier1`` is the default (``tests/conftest.py`` loads it unless
``--hypothesis-profile`` names another).  It is derandomized: every
property test draws the same examples on every run, so a failure seen once
reproduces.  Each test keeps its own ``max_examples``.

``falsify`` is for long runs under a random seed
(``--hypothesis-profile=falsify --hypothesis-seed=N``): the batteries that
take their budget from :func:`battery_examples` run at least
``FALSIFY_EXAMPLES`` examples each, and a failure prints the blob that
replays it.
"""

from hypothesis import settings

TIER1_PROFILE = "tier1"
FALSIFY_PROFILE = "falsify"
FALSIFY_EXAMPLES = 2000

settings.register_profile(TIER1_PROFILE, derandomize=True, database=None)
settings.register_profile(
    FALSIFY_PROFILE, max_examples=FALSIFY_EXAMPLES, database=None, print_blob=True
)


def battery_examples(tier1_examples: int) -> int:
    """A falsification battery's example budget under the loaded profile."""
    if settings.default is settings.get_profile(FALSIFY_PROFILE):
        return max(tier1_examples, FALSIFY_EXAMPLES)
    return tier1_examples
