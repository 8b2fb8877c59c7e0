"""Every paper claim of :data:`repro.harness.claims.CLAIMS`, judged on
the session's results.

A claim declared reproduced must hold and one declared diverging must
not, so a claim that flips either way fails here.
"""

import pytest

from repro.harness.claims import CLAIMS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_claim(claim, results):
    holds, measured = claim.predicate(results)
    assert holds == (claim.diverges is None), (
        f"{claim.figure}: {claim.paper!r} is declared {claim.verdict}, "
        f"but it {'holds' if holds else 'fails'}: {measured}")
