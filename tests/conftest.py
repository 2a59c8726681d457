import pytest

from molga.reference import synthetic_reference


@pytest.fixture(scope="session")
def fresh_sample_reference():
    # large enough that per-generation reference samples essentially never
    # repeat during a run, the regime the discriminator protocol assumes;
    # built once and shared by the acceptance criteria and the schedule's
    # end-to-end recovery run
    return synthetic_reference(35_000, seed=7)
