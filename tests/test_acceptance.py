"""Acceptance battery: every advertised guarantee, one pass/fail line each.

Each criterion runs the corresponding deterministic check from
``bdgeom.suite`` at its pinned parameters, seeds, and tolerances; the
result lines are echoed in the pytest terminal summary.

    1. stationarity        alive counts stay Poisson(n) through time
    2. cross-sampler       event-driven and marked slices agree in law
    3. mark-probabilities  alive-at-time mark fractions match closed forms
    4. mean-formula        stationary mean edge count matches n^2 pi r^2 / 2
    5. covariance-plain    edge-count covariance matches the rate mixture
    6. gaussianity-trend   normal distance shrinks with n and is < 0.05
    7. covariance-exclusive isolated-triangle covariance matches the mixture
    8. mecke-battery       12 moment identities x 5 seeds, >= 95% agree
    9. incremental-replay  tracker equals recomputation exactly, 10 streams
   10. euler-invariant     critical-point alternating sum is 1, 100/100
   11. ou-loop             estimator recovers the exact OU curve within CI
   12. regime-limits       extreme-density mixtures concentrate correctly
"""
import pytest

from bdgeom import suite

from conftest import ACCEPTANCE_LINES

CRITERIA = list(suite.CHECKS.items())
IDS = [f"{i + 1:02d}-{name}" for i, (name, _) in enumerate(CRITERIA)]


@pytest.mark.parametrize(("name", "check"), CRITERIA, ids=IDS)
def test_criterion(name, check):
    result = check(seed=0)
    ACCEPTANCE_LINES.append(result.line())
    assert result.passed, result.line()
    # check 07 reports its model's certified tail ratio; the others report nothing
    assert set(result.metrics) == ({"tail_ratio"} if name == "covariance-exclusive" else set())
