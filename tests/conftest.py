import sys

import pytest

from eigencop import generate_chain_bank, two_sine_model
from eigencop.estimation import sine_pair_means

CLT_SEED = 7
CLT_R = 5000
CLT_N = 1000


@pytest.fixture(scope="session")
def model_bank():
    """Replicate bank of chains from the (0.05, -0.2) two-sine model,
    shared by the CLT, chi-square and weighted-estimator checks."""
    c = two_sine_model(0.05, -0.2)
    keys = [(CLT_SEED, 0, 0, r) for r in range(CLT_R)]
    return generate_chain_bank(c, CLT_N, keys)


@pytest.fixture(scope="session")
def pair_means(model_bank):
    """Pair averages of the first two sine products, one per replicate."""
    return sine_pair_means(model_bank)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
