import pytest

from shiftgibbs.bundled import (equal_pair, even_shift, full_shift_2,
                                golden_mean, periodic_cycle, reducible_pair,
                                single_site, zero)


@pytest.fixture(scope="session")
def full():
    return full_shift_2()


@pytest.fixture(scope="session")
def gm():
    return golden_mean()


@pytest.fixture(scope="session")
def ev():
    return even_shift()


@pytest.fixture(scope="session")
def reducible():
    return reducible_pair()


@pytest.fixture(scope="session")
def periodic():
    return periodic_cycle()


@pytest.fixture(scope="session")
def pot_zero():
    return zero()


@pytest.fixture(scope="session")
def pot_site():
    return single_site()


@pytest.fixture(scope="session")
def pot_pair():
    return equal_pair()
