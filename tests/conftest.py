import pytest

from molga.cli import bundled_reference_path
from molga.reference import load_reference, synthetic_reference


@pytest.fixture(scope="session")
def fresh_sample_reference():
    # large enough that per-generation reference samples essentially never
    # repeat during a run, the regime the discriminator protocol assumes;
    # built once and shared by the acceptance criteria and the schedule's
    # end-to-end recovery run
    return synthetic_reference(35_000, seed=7)


@pytest.fixture(scope="session")
def bundled_reference():
    # shared read-only; a test that checks what loading leaves underived
    # loads its own copy
    return load_reference(bundled_reference_path())[0]
