import numpy as np
import pytest

from birkhoff_poisson import symspace


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def cp1():
    return symspace.grassmannian(1, 1)


@pytest.fixture
def cp2():
    return symspace.grassmannian(1, 2)


@pytest.fixture
def gr22():
    return symspace.grassmannian(2, 2)


@pytest.fixture
def group2():
    return symspace.group_case(2)
