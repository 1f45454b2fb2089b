import numpy as np
import pytest

from tauberlab import GrowthTarget, SmoothedGrowth, catalog, growth_target


@pytest.fixture(scope="session")
def log_target():
    return growth_target(catalog("log"))


@pytest.fixture(scope="session")
def log_sg(log_target):
    return SmoothedGrowth(log_target)


@pytest.fixture(scope="session")
def pow_target():
    return growth_target(catalog("pow", alpha=0.5))


@pytest.fixture(scope="session")
def pow_sg(pow_target):
    return SmoothedGrowth(pow_target)


@pytest.fixture(scope="session")
def const_target():
    # omega == 1; degenerate input that skips growth-target validation
    return GrowthTarget(rho_tilde=None, omega=lambda x: np.ones_like(np.asarray(x, dtype=float)))


@pytest.fixture(scope="session")
def const_sg(const_target):
    return SmoothedGrowth(const_target)


@pytest.fixture(scope="session")
def sqrt_target():
    return GrowthTarget(rho_tilde=None, omega=lambda x: np.sqrt(np.asarray(x, dtype=float)))


@pytest.fixture(scope="session")
def sqrt_sg(sqrt_target):
    return SmoothedGrowth(sqrt_target)


@pytest.fixture(scope="session")
def default_suite_report():
    # one full default run shared by the suite and acceptance modules
    from tauberlab import run_suite

    return run_suite()
