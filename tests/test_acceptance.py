"""Acceptance sweep: one test per headline guarantee of the package.

Each test is a self-contained certification run at its stated tolerance
and draw count; `pytest -v` therefore prints one pass/fail line per
criterion.  Tolerances are part of the contract and must not be loosened
here.  Criterion 2 is marked xfail on purpose: the normalized log norm
converges to the spectral potential like O(1/n), so no implementation can
close a 1e-6 gap at n = 200 on a system with transient atoms (the zero
potential on the tail fixture leaves a gap of ln(3)/200 ~ 5.5e-3).  The
companion tests right below it certify the same agreement at horizons
where it is actually achievable.
"""

import math

import numpy as np
import pytest

from tentropy import cli
from tentropy.entropy import (
    certificate_sup,
    inner_problem,
    local_young_check,
    local_young_checks,
    maximize_inner,
    near_minimizer_bounds,
    tau_direct,
    tau_dual,
)
from tentropy.entstat import verify_estimate
from tentropy.fixtures import ALL, cycle3, null_pair, tail
from tentropy.io import save_system
from tentropy.sampling import (
    perturbed_invariant,
    random_invariant,
    random_null_charging,
    random_partition,
    random_potential,
    random_system,
)
from tentropy.spectral import (
    log_spectral_radius,
    log_spectral_radius_batch,
    op_norm_log,
    power_gap,
    property_residuals,
)
from tentropy.system import (
    FULL,
    atomic_partition,
    birkhoff,
    alpha_power,
    effective_weights,
    functional,
    pair,
)
from tentropy.varprin import (
    NULL_CHARGE,
    NoDefectError,
    divergence_witness,
    null_charge_divergence,
    subgradient,
    variational_principle,
)

from oracles import op_norm_log_pow

FIXTURES = [factory() for _, factory in sorted(ALL.items())]
LN2 = math.log(2.0)


def replayed_norm_log(system, phi, n):
    """Brute-force sup over normalized atom indicators via raw applications."""
    weights = np.exp(phi)
    best = 0.0
    for y in np.flatnonzero(system.support):
        f = np.zeros(system.n)
        f[y] = 1.0 / system.m[y]
        for _ in range(n):
            f = weights * f[system.alpha]
        best = max(best, float((np.abs(f) * system.m).sum()))
    return math.log(best) if best > 0.0 else -math.inf


def test_criterion_01_operator_norm_oracle():
    """op_norm equals the indicator brute force (1e-12, log scale) and
    dominates the growth of 10^3 random unit functions (1e-9)."""
    gen = np.random.default_rng(2861)
    systems = FIXTURES + [random_system(gen) for _ in range(100)]
    worst_oracle = 0.0
    worst_excess = -np.inf
    for s in systems:
        phi = gen.uniform(-2.0, 2.0, s.n)
        fs = gen.normal(size=(1000, s.n))
        fs[:, ~s.support] = 0.0
        norms = np.abs(fs) @ s.m
        ok = norms > 1e-9
        fs = fs[ok] / norms[ok, None]
        for n in range(1, 6):
            log_norm = op_norm_log(s, phi, n)
            diff = abs(log_norm - replayed_norm_log(s, phi, n))
            worst_oracle = max(worst_oracle, diff)
            sn = birkhoff(s, phi, n)
            an = alpha_power(s, n)
            grown = np.abs(fs[:, an]) @ (s.m * np.exp(sn))
            excess = grown.max() / math.exp(log_norm) - 1.0
            worst_excess = max(worst_excess, excess)
    assert worst_oracle <= 1e-12, f"indicator oracle off by {worst_oracle}"
    assert worst_excess <= 1e-9, f"a unit function beat the norm by {worst_excess}"
    print(f"criterion 1: oracle gap {worst_oracle:.2e}, domination excess "
          f"{worst_excess:.2e} over {len(systems)} systems")


@pytest.mark.xfail(
    strict=True,
    reason="(1/n) log ||A^n|| - lambda decays like 1/n; at n = 200 the gap "
    "is ~5e-3 on the tail fixture, so 1e-6 agreement is unattainable at "
    "this horizon for any implementation",
)
def test_criterion_02_cycle_mean_vs_norm_rate_at_200():
    gen = np.random.default_rng(1417)
    worst = 0.0
    for s in FIXTURES:
        for phi in [np.zeros(s.n)] + [gen.uniform(-5, 5, s.n) for _ in range(5)]:
            lam = log_spectral_radius(s, phi)
            rate = op_norm_log(s, phi, 200) / 200.0
            worst = max(worst, abs(lam - rate))
    assert worst <= 1e-6, f"worst gap at n=200 is {worst}"


def test_criterion_02a_companion_rate_envelope_at_200():
    """The n=200 gap obeys the analytic envelope and sits above the limit."""
    gen = np.random.default_rng(1417)
    for s in FIXTURES:
        ratio = math.log(float(s.m[s.support].max() / s.m[s.support].min()))
        for phi in [np.zeros(s.n)] + [gen.uniform(-5, 5, s.n) for _ in range(5)]:
            lam = log_spectral_radius(s, phi)
            rate = op_norm_log(s, phi, 200) / 200.0
            span = float(phi.max() - phi.min())
            envelope = (math.log(s.n) + 2.0 * span * s.n + ratio) / 200.0
            assert lam - 1e-12 <= rate <= lam + envelope
    print("criterion 2 companion: envelope holds at n=200 on all fixtures")


def test_criterion_02b_companion_agreement_at_2_pow_27():
    """Binary squaring reaches n = 2**27 where the 1e-6 agreement holds."""
    gen = np.random.default_rng(1418)
    n = 2**27
    worst = 0.0
    for s in FIXTURES:
        for _ in range(25):
            phi = gen.uniform(-5, 5, s.n)
            lam = log_spectral_radius(s, phi)
            rate = op_norm_log_pow(s, phi, n) / n
            worst = max(worst, abs(lam - rate))
    assert worst <= 1e-6, f"worst gap at n=2**27 is {worst}"
    print(f"criterion 2 companion: worst |lambda - rate| at 2**27 is {worst:.2e}")


def test_criterion_02c_companion_pow_route_cross_check():
    gen = np.random.default_rng(1419)
    for s in FIXTURES:
        for _ in range(10):
            phi = gen.uniform(-5, 5, s.n)
            for n in (1, 2, 3, 5, 8, 13):
                a = op_norm_log_pow(s, phi, n)
                b = op_norm_log(s, phi, n)
                assert a == pytest.approx(b, abs=1e-9)
    print("criterion 2 companion: squaring route matches direct norms")


def test_criterion_03_potential_calculus_residuals():
    """Monotonicity, additive homogeneity, sup-norm Lipschitz bound,
    convexity, and strong invariance: residuals <= 1e-12 on 10^4 draws
    per fixture (batched), with the scalar API spot-checked against the
    batch on 100 of them."""
    gen = np.random.default_rng(907)
    draws = 10**4
    for s in FIXTURES:
        phi = gen.uniform(-3, 3, size=(draws, s.n))
        psi = gen.uniform(-3, 3, size=(draws, s.n))
        t = gen.uniform(0, 1, size=draws)
        shift = gen.uniform(-2, 2, size=draws)
        lam_phi = log_spectral_radius_batch(s, phi)
        lam_psi = log_spectral_radius_batch(s, psi)
        mono = np.maximum(lam_phi, lam_psi) - log_spectral_radius_batch(
            s, np.maximum(phi, psi)
        )
        addi = np.abs(
            log_spectral_radius_batch(s, phi + shift[:, None]) - lam_phi - shift
        )
        sup_diff = np.max(np.abs(phi - psi)[:, s.support], axis=1)
        lips = np.abs(lam_phi - lam_psi) - sup_diff
        mix = (1 - t)[:, None] * phi + t[:, None] * psi
        conv = log_spectral_radius_batch(s, mix) - (
            (1 - t) * lam_phi + t * lam_psi
        )
        strong = np.abs(
            log_spectral_radius_batch(s, phi + psi[:, s.alpha])
            - log_spectral_radius_batch(s, phi + psi)
        )
        for name, res in [
            ("monotonicity", mono),
            ("additive homogeneity", addi),
            ("lipschitz", lips),
            ("convexity", conv),
            ("strong invariance", strong),
        ]:
            assert res.max() <= 1e-12, f"{name} residual {res.max()} on {s.atoms}"
        for i in range(0, draws, draws // 100):
            r = property_residuals(s, phi[i], psi[i], t=float(t[i]),
                                   shift=float(shift[i]))
            assert max(vars(r).values()) <= 1e-12
    print("criterion 3: all five residuals <= 1e-12 on 10^4 draws per fixture")


def test_criterion_04_power_inequality():
    """k lambda(phi) <= lambda(k phi over the k-th power map) + 1e-12 on
    10^4 draws, and the frozen strict-gap instance is reproduced."""
    gen = np.random.default_rng(1201)
    strict = 0
    for _ in range(10**4):
        s = random_system(gen)
        phi = random_potential(gen, s)
        k = int(gen.integers(1, 6))
        g = power_gap(s, phi, k)
        assert g.scaled <= g.power + 1e-12
        if g.gap > 1e-9:
            strict += 1
    g = power_gap(cycle3(), np.array([LN2, 0.0, 0.0]), 3)
    assert g.scaled == pytest.approx(LN2, abs=1e-15)
    assert g.power == pytest.approx(3 * LN2, abs=1e-15)
    assert g.gap == pytest.approx(2 * LN2, abs=1e-12)
    print(f"criterion 4: inequality held on 10^4 draws ({strict} strict); "
          f"frozen 3-cycle gap 2 ln 2 reproduced")


def local_young_sides(system, indexed):
    """``local_young_checks`` on the draws of ``indexed``, (index, draw)
    pairs of one system.  A failure names the index of its draw: every row
    keeps the bits of its own ``local_young_check`` call, so rerunning the
    draws one by one finds it."""
    draws = [draw for _, draw in indexed]
    try:
        lhs, rhs = local_young_checks(
            system,
            np.array([phi for phi, _, _, _ in draws]),
            np.array([effective_weights(system, mu) for _, mu, _, _ in draws]),
            np.array([n for _, _, n, _ in draws]),
            np.array([eps for _, _, _, eps in draws]),
        )
        return list(zip(lhs.tolist(), rhs.tolist()))
    except RuntimeError:
        for i, draw in indexed:
            try:
                local_young_check(system, *draw)
            except RuntimeError as exc:
                raise AssertionError(f"local violation at draw {i}") from exc
        raise


def test_criterion_05_young_global_and_local():
    """Zero violations of the duality inequality and its fixed-horizon
    local form with oscillation partitions, 10^4 draws, eps in {1, 0.1}.
    The local form is evaluated in chunks of 500 draws of one fixture."""
    gen = np.random.default_rng(331)
    draws = 10**4
    worst_global = np.inf
    worst_local = np.inf
    local = [[] for _ in FIXTURES]
    for i in range(draws):
        s = FIXTURES[i % len(FIXTURES)]
        mu = random_invariant(gen, s)
        phi = random_potential(gen, s)
        lam = log_spectral_radius(s, phi)
        slack = lam - pair(s, mu, phi) - tau_dual(s, mu, cross_check=False).value
        worst_global = min(worst_global, slack)
        assert slack >= -1e-9, f"global violation {slack} at draw {i}"
        n = 1 + (i % 6)
        eps = 1.0 if i % 2 else 0.1
        local[i % len(FIXTURES)].append((i, (phi, mu, n, eps)))
    for s, indexed in zip(FIXTURES, local):
        for start in range(0, len(indexed), 500):
            chunk = indexed[start:start + 500]
            for (i, _), (lhs, rhs) in zip(chunk, local_young_sides(s, chunk)):
                worst_local = min(worst_local, lhs - rhs)
                assert lhs >= rhs - 1e-8, f"local violation at draw {i}"
    print(f"criterion 5: 10^4 draws, worst global slack {worst_global:.2e}, "
          f"worst local slack {worst_local:.2e}")


def test_criterion_06_route_agreement_and_dichotomy():
    """Direct-minus-dual in [0, 1e-3] for polytope functionals on fixtures
    plus 100 random systems; dual dichotomy {0, -inf} with verified decay
    witnesses on 10^4 random functionals."""
    gen = np.random.default_rng(727)
    systems = FIXTURES + [random_system(gen) for _ in range(100)]
    for i, s in enumerate(systems):
        for j in range(3):
            mu = random_invariant(gen, s)
            direct = tau_direct(s, mu, seed=i * 7 + j)
            dual = tau_dual(s, mu, cross_check=False)
            assert dual.value == 0.0
            assert 0.0 <= direct.value - dual.value <= 1e-3

    zeros = divergent = 0
    for i in range(10**4):
        s = systems[i % len(systems)]
        kind = i % 3
        if kind == 0:
            mu = random_invariant(gen, s)
        elif kind == 1:
            mu = functional(s, gen.normal(0.3, 0.7, s.n))
        elif not bool(s.support.all()):
            mu = random_null_charging(gen, s)
        else:
            mu = perturbed_invariant(gen, s)
        r = tau_dual(s, mu, cross_check=False)
        assert r.value in (0.0, -np.inf)
        if kind == 0:
            assert r.value == 0.0
        if r.value == 0.0:
            zeros += 1
            continue
        divergent += 1
        w = r.divergence
        assert w is not None
        if i % 50 == 0:  # independent decay replay on a subsample
            for tt in (1.0, 10.0, 100.0, 1000.0):
                d = tt * w.direction
                h = log_spectral_radius(s, d) - pair(s, mu, d)
                assert h <= -w.rate * tt + 1e-9
    assert zeros and divergent
    print(f"criterion 6: routes agree on polytope draws; dichotomy over 10^4 "
          f"functionals ({zeros} zero, {divergent} divergent)")


def test_criterion_07_inner_certificate_sup_is_one():
    """Whenever the fixed-horizon value is finite the stationarity ratio
    field peaks at 1 within 1e-6, for n <= 4, atomic and random partitions."""
    gen = np.random.default_rng(505)
    solved = 0
    worst = 0.0
    for s in FIXTURES:
        for n in range(1, 5):
            parts = [atomic_partition(s)] + [random_partition(gen, s) for _ in range(3)]
            for part in parts:
                for _ in range(20):
                    mu = random_invariant(gen, s)
                    prob = inner_problem(s, mu, part, n)
                    sol = maximize_inner(prob, tol=1e-9)
                    if sol.value == -np.inf:
                        continue
                    solved += 1
                    worst = max(worst, abs(certificate_sup(prob, sol) - 1.0))
    assert solved > 0
    assert worst <= 1e-6, f"certificate sup drifted {worst} from 1"
    print(f"criterion 7: certificate sup = 1 +- {worst:.2e} on {solved} solves")


def test_criterion_08_near_minimizer_bounds():
    """Both slack laws of the near-minimizing potential are nonnegative on
    10^3 seeded draws for eps in {1, 0.1, 0.01}."""
    gen = np.random.default_rng(808)
    worst = np.inf
    for i in range(10**3):
        s = FIXTURES[i % len(FIXTURES)]
        mu = random_invariant(gen, s)
        part = atomic_partition(s) if i % 2 else random_partition(gen, s)
        n = 1 + (i % 3)
        for eps in (1.0, 0.1, 0.01):
            b = near_minimizer_bounds(s, mu, part, n, eps)
            worst = min(worst, b.growth_slack, b.pairing_slack)
            assert b.growth_slack >= -1e-8
            assert b.pairing_slack >= -1e-8
    print(f"criterion 8: 3x10^3 bound pairs, worst slack {worst:.2e}")


def test_criterion_09_variational_principle_and_subgradient():
    """Attainment gap <= 1e-9 on 10^3 potentials per fixture; maximizers
    pass the subgradient inequality against 10^3 random directions."""
    gen = np.random.default_rng(909)
    for s in FIXTURES:
        worst_gap = 0.0
        for i in range(10**3):
            phi = random_potential(gen, s)
            cert = variational_principle(s, phi)
            worst_gap = max(worst_gap, abs(cert.gap))
            if i % 100 == 0:
                r = subgradient(s, phi, draws=10**3, seed=i)
                assert r.worst_violation <= 1e-9
                assert r.tau_identity_residual <= 1e-9
        assert worst_gap <= 1e-9
    print("criterion 9: gap <= 1e-9 on 4x10^3 potentials; subgradient sweeps clean")


def test_criterion_10_null_charge_twin_divergence():
    """FULL functionals charging the null atom diverge by both routes,
    with the two-member partition witness and the ray witness."""
    s = null_pair()
    mu = functional(s, np.array([0.0, 1.0]), mode=FULL)
    rep = null_charge_divergence(s, mu)
    assert rep.tau_value == -np.inf
    assert rep.inf_value == -np.inf
    assert rep.partition.size == 2
    assert np.allclose(rep.partition.members[0], [0.0, 1.0], atol=0)
    assert np.allclose(rep.partition.members.sum(axis=0), 1.0, atol=0)
    assert rep.partition_solution.value == -np.inf
    assert rep.ray.defect == NULL_CHARGE
    assert tau_direct(s, mu).value == -np.inf
    assert tau_dual(s, mu).value == -np.inf

    gen = np.random.default_rng(1010)
    for _ in range(50):
        mu = random_null_charging(gen, s)
        rep = null_charge_divergence(s, mu)
        assert rep.tau_value == rep.inf_value == -np.inf
    print("criterion 10: twin divergence certificates on the null fixture")


def test_criterion_11_hitting_mass_estimate():
    """Zero violations of the pullback-mass bound over fixtures, three
    functional families, eps in {1, 0.5, 0.1}, horizons to 12, every
    supported atom; the divergent branch must appear and pass."""
    gen = np.random.default_rng(1111)
    branches = set()
    rows = 0
    for s in FIXTURES:
        families = [random_invariant(gen, s), perturbed_invariant(gen, s)]
        if not bool(s.support.all()):
            families.append(random_null_charging(gen, s))
        for mu in families:
            for eps in (1.0, 0.5, 0.1):
                rep = verify_estimate(s, mu, eps, n_range=range(1, 13))
                assert rep.all_hold, f"violation at {rep.worst_at} on {s.atoms}"
                assert len(rep.rows) == 12 * len(s.supported_indices)
                branches.add(rep.branch)
                rows += len(rep.rows)
    assert branches == {"finite", "divergent"}
    print(f"criterion 11: {rows} rows hold; branches exercised: {sorted(branches)}")


def test_criterion_12_certify_reports_byte_identical(tmp_path):
    """Repeating any certify run with the same seed reproduces the report
    byte for byte."""
    paths = {
        "c3": tmp_path / "c3.json",
        "null": tmp_path / "null.json",
    }
    save_system(paths["c3"], cycle3())
    save_system(paths["null"], null_pair())
    jobs = [
        ("c3", "vp", "31"),
        ("c3", "young", "99"),
        ("null", "entstat", "7"),
    ]
    for name, suite, seed in jobs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{suite}-{tag}.json"
            code = cli.main(
                ["certify", str(paths[name]), "--suite", suite,
                 "--seed", seed, "--out", str(out)]
            )
            assert code == 0, f"certify {name}/{suite} failed"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"report for {name}/{suite} not reproducible"
    print("criterion 12: three certify jobs reproduced byte-identically")
