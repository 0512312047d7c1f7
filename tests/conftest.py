import pytest

from induniv.gamma import make_gamma_params
from induniv.lps import cached_lps_graph


@pytest.fixture(scope="session")
def rm_desk():
    """The default desk expander, built once per session."""
    return cached_lps_graph(5, 29)


@pytest.fixture(scope="session")
def desk_params2(rm_desk):
    return make_gamma_params(2, 30)


@pytest.fixture(scope="session")
def desk_params3(rm_desk):
    return make_gamma_params(3, 30)
