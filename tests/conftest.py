import numpy as np
import pytest

from tentropy.fixtures import ALL
from tentropy.sampling import random_potential, random_system
from tentropy.system import make_system


@pytest.fixture(params=sorted(ALL))
def any_system(request):
    """One of the four reference systems, by name."""
    return ALL[request.param]()


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


@pytest.fixture(scope="session")
def system_pool():
    """A fixed bag of random valid systems shared across property tests."""
    gen = np.random.default_rng(99)
    return [random_system(gen) for _ in range(25)]


@pytest.fixture(scope="session")
def potential_pool(system_pool):
    gen = np.random.default_rng(991)
    return [random_potential(gen, s) for s in system_pool]


@pytest.fixture(scope="session")
def large_pool():
    """Systems of 200 and 500 atoms beyond the reach of the brute-force pool.

    A fifth of the atoms is null and closed under preimage (supported atoms
    map to supported atoms, null atoms anywhere), and the random map leaves
    some atoms, supported and null, with an empty preimage.
    """
    gen = np.random.default_rng(2024)
    systems = []
    for n in (200, 500):
        support = np.ones(n, dtype=bool)
        support[gen.permutation(n)[: n // 5]] = False
        sup = np.flatnonzero(support)
        alpha = gen.integers(0, n, size=n)
        alpha[sup] = gen.choice(sup, size=sup.size)
        m = np.where(support, gen.uniform(0.2, 2.0, size=n), 0.0)
        s = make_system(m, alpha)
        hit = np.bincount(s.alpha, minlength=n) > 0
        assert s.validation.valid
        assert not hit[support].all() and not hit[~support].all()
        systems.append(s)
    return systems
