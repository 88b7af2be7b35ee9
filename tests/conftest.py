import tracemalloc

import numpy as np
import pytest

from tentropy.fixtures import ALL, twocyc
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
def standard_panel():
    """The systems of the pinned certify reports, built in-process: twocyc
    and the six of ``random-systems 6 --max-atoms 12 --seed 7``."""
    gen = np.random.default_rng(7)
    return [twocyc()] + [random_system(gen, max_atoms=12) for _ in range(6)]


@pytest.fixture(scope="session")
def stress_panel():
    """Valid shapes the standard panel lacks, every atom supported with a
    mass in [0.2, 2]: the single 30-cycle; a 30-cycle with 6 tails of 1 to
    6 atoms, tail j ending on cycle atom 5j; a fixed point under a 39-atom
    chain; and a 2-cycle under 28 atoms mapping k to k - 2."""
    hung = [np.roll(np.arange(30), -1)]
    start = 30
    for j in range(6):
        hung.append(np.append(np.arange(start + 1, start + j + 1), 5 * j))
        start += j + 1
    maps = [
        np.roll(np.arange(30), -1),
        np.concatenate(hung),
        np.maximum(np.arange(40) - 1, 0),
        np.concatenate([[1, 0], np.arange(28)]),
    ]
    gen = np.random.default_rng(3030)
    return [make_system(gen.uniform(0.2, 2.0, alpha.size), alpha) for alpha in maps]


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


def cycles_on(gen, atoms, alpha):
    """Point ``alpha`` of the shuffled ``atoms`` into cycles of 1 to 4 atoms."""
    atoms = gen.permutation(atoms)
    start = 0
    while start < atoms.size:
        cycle = atoms[start : start + int(gen.integers(1, 5))]
        alpha[cycle] = np.roll(cycle, -1)
        start += cycle.size


@pytest.fixture(scope="session")
def chunk_systems():
    """Systems for the tests of sweeps in row chunks: maps of 20 and 41
    supported atoms, all on cycles of 1 to 4 atoms, and one of 60 whose
    supported atoms lie on such cycles and whose null fifth maps anywhere.
    With many cycles a subgradient violation is rarely exactly 0."""
    gen = np.random.default_rng(808)
    systems = []
    for n in (20, 41):
        alpha = np.empty(n, dtype=np.intp)
        cycles_on(gen, np.arange(n), alpha)
        systems.append(make_system(gen.uniform(0.2, 2.0, n), alpha))
    support = np.ones(60, dtype=bool)
    support[gen.permutation(60)[:12]] = False
    alpha = gen.integers(0, 60, size=60)
    cycles_on(gen, np.flatnonzero(support), alpha)
    systems.append(make_system(np.where(support, gen.uniform(0.2, 2.0, 60), 0.0), alpha))
    return systems


@pytest.fixture
def traced_peak():
    """A function giving ``call()`` and the peak memory traced during that
    call, in bytes; an untraced call first fills the system's caches."""

    def peak(call):
        call()
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
