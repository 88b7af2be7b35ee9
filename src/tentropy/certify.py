"""Named certification checks and the suites that group them.

Each check draws from its own stream, keyed by (seed, check name), so the
verdicts do not depend on which other checks run or in what order.  A
check returns its headline values, its claims, and optionally a witness of
the worst case.  A claim is an ``(observed, bound)`` pair that holds when
``observed <= bound``; tolerance bounds are the named constants of
``claims``, the same names the library's own assertions of those laws read,
and go through ``CertifyConfig.threshold`` (so ``--tolerance`` overrides
them); structural bounds are literal.  A check keeps its observations as
arrays and reduces each once with numpy, which keeps a NaN.  ``make_record``
derives every record's verdict (pass when all claims hold), residual (the
largest excess over a bound, 0 exactly when the record passes) and repro
(failing records only); the CLI builds its own records with it too.  The
runner turns a ``CertificateError`` (a failed claim) or ``ValueError``
raised by a check into a failed record with an infinite residual instead
of a crash; any other exception propagates, and so does numpy's
``LinAlgError``: it subclasses ``ValueError``, but a singular linear system
is a failure of the library, not bad input.

Draws are addressed by (seed, check, block) (``_Draws``): draw i is row
i % 8 of block i // 8, so any draw is re-derived from (seed, check, i)
alone and the chunks a check is swept in move no bit.  A law that only
some draws take (one of ``vp.dichotomy``'s four, a simplex point or a
random partition) is drawn for those rows alone.

Every check evaluates a chunk of draws with batched calls (one
``system._pairings`` call for the dot products of two stacks' rows), each
draw keeping the bits of its own evaluation, but for
``lemma.near_minimizer``: its batched inner solve pads a problem to the
row count of its batch, which can move its slack in the last bits.
``lemma.inner_certificate`` solves each draw alone with ``maximize_inner``.
One ``maximize_inner_batch`` per charged-row count would pad nothing and
keep every bit, but perfbench's ``certify-small`` workload counts these
``maximize_inner`` calls and traces no batch solve, so they stay per draw
until it does.

A check sweeps its draws in chunks with ``_Draws.sweep``, which sizes every
chunk by one memory budget: ``system._chunk_rows`` applied to the entries
that one draw adds, so that a chunk holds about ``system._CHUNK_ENTRIES``
floats (1 MiB) at any N, and whole blocks.  A draw of a (draws, N) stack
adds N entries.  A draw of ``young.local``, ``lemma.near_minimizer`` or
``lemma.inner_certificate`` adds (N + 1) * N entries (the largest
partition's members) for each array of that size it holds at once, a count
each check states where it sizes its chunks.  At N <= 12 the 1,000 draws
of a quick profile are one (draws, N) chunk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .claims import (
    CERTIFICATE_TOL,
    INNER_TOL,
    ROUNDOFF_TOL,
    ROUTE_GAP_TOL,
    SLACK_TOL,
    SOLVER_SLACK_TOL,
    CertificateError,
)
from .entropy import (
    _horizon_problems,
    certificate_sup,
    hull_means,
    local_young_checks,
    maximize_inner,
    near_minimizer_checks,
    tau_direct,
    tau_dual,
)
from .entstat import (
    _hit_integrals,
    _hitting_mass,
    build_neighborhood,
    empirical_weights,
    verify_estimate,
)
from .sampling import (
    perturbed_invariant_weights,
    random_functional_weights,
    random_invariant_weights,
    random_null_charging_weights,
    random_partition_members,
    random_potentials,
    random_simplex_weights,
    random_unit_stack,
)
from .spectral import (
    _l1_norms,
    _norm_logs,
    iterate,
    log_spectral_radius_batch,
    op_norm_log,
    power_gap,
    property_residuals,
    spectral_potential,
)
from .system import (
    _BLOCK,
    ESSENTIAL,
    FULL,
    FiniteSystem,
    _chunk_rows,
    _horizon,
    _horizon_rows,
    _pairings,
    _require_partitions,
    _require_positive,
    _seed,
    _transport,
    atomic_partition,
    functional,
    orbit_sums,
    require_valid,
)
from .varprin import (
    divergence_witnesses,
    subgradient,
    variational_principle,
    young_checks,
)


# The draw count of each ``certify --profile``.
PROFILES = {"quick": 1000, "deep": 10000}


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs shared by every check; the seed fixes all randomness.

    ``ValueError`` unless the seed is an integer (not a bool) in
    [0, 2**64) (``system._seed``, the CLI's rule too); draws
    and n_max are integers of at least 1; eps lists at least one width,
    each finite and positive; and the tolerance is None or finite and
    nonnegative.
    """

    seed: int = 0
    draws: int = PROFILES["quick"]
    eps: tuple[float, ...] = (1.0, 0.5, 0.1)
    n_max: int = 12
    tolerance: float | None = None
    suite: str = "all"
    system_label: str = "system.json"

    def __post_init__(self):
        _seed(self.seed)
        _horizon(self.draws, what="draws")
        _horizon(self.n_max, what="n_max")
        if not len(self.eps):
            raise ValueError("eps must list at least one width")
        _require_positive(self.eps, "eps")
        if self.tolerance is not None and not 0.0 <= self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and nonnegative")

    def threshold(self, default: float) -> float:
        return default if self.tolerance is None else self.tolerance


class _Draws:
    """The draws of one check, addressed by (seed, check, block).

    Field f of block b (its potentials, weights, horizons, ...) is one
    ``sample(rng, system, k)`` call, as the stacked samplers of ``sampling``
    take, on a Philox generator keyed by (seed, the sha256 tag of the
    check's name) and set to counter (0, b, f, 0): a counter-based stream
    (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as
    1, 2, 3", SC 2011).  Setting the state of one generator per field and
    block costs a quarter of building a generator.

    That cost cannot shrink without moving bits: each block of 8 draws is
    its own counter stream, so each field of a block takes one state reset
    (1.2 to 2.0 us, timeit) and one sampler call (``rng.integers(lo, hi,
    size=8)`` 4.8 to 5.3 us, ``rng.uniform(size=8)`` 1.7 to 2.0 us), which
    checks with few draws per field feel most.
    """

    def __init__(self, seed: int, name: str, system: FiniteSystem):
        tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
        self._bits = np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))
        self._rng = np.random.Generator(self._bits)
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]
        self._system = system

    def field(self, f: int, start: int, stop: int, sample, where=None):
        """Field ``f`` of draws ``start:stop``, where ``start`` is a multiple
        of ``_BLOCK`` and ``stop`` one or the draw count: per block, one
        ``sample`` call for its k draws, or for those of them that the
        boolean mask ``where`` over ``start:stop`` keeps.  Array rows are
        stacked and list items joined, in draw order."""
        parts = []
        self._counter[2] = f
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            k = hi - lo if where is None else int(where[lo - start : hi - start].sum())
            self._counter[1] = lo // _BLOCK
            self._bits.state = self._state
            parts.append(sample(self._rng, self._system, k))
        if isinstance(parts[0], list):
            return [item for part in parts for item in part]
        return np.concatenate(parts)

    def sweep(self, rows: int, entries: int, *samples):
        """Per chunk of ``_chunk_rows(entries)`` draws of ``0:rows`` (a draw
        adds ``entries`` floats): ``start, stop`` and one field per sampler."""
        size = _chunk_rows(entries)
        for start in range(0, rows, size):
            stop = min(start + size, rows)
            yield start, stop, *(self.field(f, start, stop, s) for f, s in enumerate(samples))


def _integers(low: int, high: int):
    """A sampler of integers in [low, high)."""
    return lambda rng, system, k: rng.integers(low, high, size=k)


def _uniform(low: float = 0.0, high: float = 1.0):
    return lambda rng, system, k: rng.uniform(low, high, size=k)


def _wide_potentials(rng, system, k):
    return random_potentials(rng, system, k, 3.0)


def _partition_members(draws, f, start, stop, atomic, split):
    """The members of each draw of ``start:stop``: the atomic partition
    where ``split`` < 0.5, else a random partition from field f."""
    drawn = iter(draws.field(f, start, stop, random_partition_members, split >= 0.5))
    return [atomic if u < 0.5 else next(drawn) for u in split.tolist()]


def _check_young_global(system, cfg, draws):
    chunks = draws.sweep(cfg.draws, system.n, _wide_potentials, random_invariant_weights)
    slacks = np.concatenate([young_checks(system, p, w) for _, _, p, w in chunks])
    worst = float(slacks.min())
    tight = int((slacks <= SLACK_TOL).sum())
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst, "tight_count": tight},
        "claims": [(-worst, cfg.threshold(SLACK_TOL))],
    }


def _check_young_local(system, cfg, draws):
    eps = np.array(cfg.eps, dtype=float)
    slacks = []
    # A draw holds arrays of up to (N + 1) x N entries: its level partition,
    # its pushed members and inner problem, and its share of the batched
    # solver's padded matrices.  tracemalloc measured 5.1 such arrays per
    # draw at N = 12 and 2.6 at N = 100 (level partitions have fewer
    # members than atoms), so a draw counts as 4.
    for _, _, phis, weights, ns, picks in draws.sweep(
        cfg.draws, 4 * system.n * (system.n + 1),
        random_potentials, random_invariant_weights, _integers(1, 7), _integers(0, eps.size),
    ):
        lhs, rhs = local_young_checks(system, phis, weights, ns, eps[picks])
        slacks.append(lhs - rhs)
    worst = float(np.concatenate(slacks).min())
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(SOLVER_SLACK_TOL))],
    }


def _check_vp_gap(system, cfg, draws):
    chunks = draws.sweep(cfg.draws, system.n, _wide_potentials)
    gaps = np.concatenate([variational_principle(system, p).gap for _, _, p in chunks])
    worst = float(np.abs(gaps).max())
    return {
        "values": {"draws": cfg.draws, "worst_gap": worst},
        "claims": [(worst, cfg.threshold(SLACK_TOL))],
    }


def _check_vp_subgradient(system, cfg, draws):
    rounds = max(1, cfg.draws // 100)
    chunks = draws.sweep(rounds, system.n, random_potentials, _integers(0, 2**63))
    results = [
        subgradient(system, phi, draws=cfg.draws, seed=seed)
        for _, _, phis, seeds in chunks
        for phi, seed in zip(phis, seeds.tolist())
    ]
    worst = float(np.max([res.worst_violation for res in results]))
    identity = float(np.max([res.tau_identity_residual for res in results]))
    tol = cfg.threshold(SLACK_TOL)
    return {
        "values": {
            "base_points": rounds,
            "draws_each": cfg.draws,
            "worst_violation": worst,
            "tau_identity_residual": identity,
        },
        "claims": [(worst, tol), (identity, tol)],
    }


def _check_vp_dichotomy(system, cfg, draws):
    has_nulls = bool((~system.support).any())
    # the laws of a draw's weights, each drawn for the rows that take it
    laws = (
        random_invariant_weights,
        random_functional_weights,
        perturbed_invariant_weights,
        random_null_charging_weights,
    )
    diverged = []
    wrong = []
    for start, stop, pick, charge in draws.sweep(cfg.draws, system.n, _integers(0, 3), _uniform()):
        # a third pick charges a null atom with probability 0.3, if any
        law = np.where((pick == 2) & has_nulls & (charge < 0.3), 3, pick)
        weights = np.empty((stop - start, system.n))
        for f, sample in enumerate(laws):
            rows = law == f
            if rows.any():
                weights[rows] = draws.field(2 + f, start, stop, sample, rows)
        # tau is 0 on a row without a defect, certified by one stacked
        # hull_means, and -inf on a row with a witness ray
        rays = divergence_witnesses(system, weights)
        diverges = np.array([ray is not None for ray in rays], dtype=bool)
        hull_means(system, weights[~diverges])
        diverged.append(diverges)
        wrong.append(weights[(law == 0) & diverges])
    diverges = np.concatenate(diverged)
    wrong = np.concatenate(wrong)
    witness = None
    if len(wrong):
        # an invariant draw is ESSENTIAL
        witness = {"weights": [float(v) for v in wrong[0]], "mode": ESSENTIAL, "value": -np.inf}
    return {
        "values": {
            "draws": cfg.draws,
            "zeros": int((~diverges).sum()),
            "divergent": int(diverges.sum()),
        },
        "claims": [(len(wrong), 0)],
        "witness": witness,
    }


def _check_op_norm_oracle(system, cfg, draws):
    gaps = []
    excess = []
    sup = system.supported_indices
    # field 0 holds the potential of each horizon n, field n its unit-ball draws
    for n, phi in enumerate(draws.field(0, 0, 5, random_potentials), start=1):
        norm_log = op_norm_log(system, phi, n)
        norms = []
        for start, stop in draws.sweep(sup.size, system.n):
            atoms = sup[start:stop]
            indicators = np.zeros((atoms.size, system.n))
            indicators[np.arange(atoms.size), atoms] = 1.0 / system.m[atoms]
            norms.append(_l1_norms(system, iterate(system, phi, indicators, n)))
        norms = np.concatenate(norms)
        # an atom with no n-step preimage grows an indicator to zero; a NaN
        # norm is kept, so that the check fails
        best = float(np.log(norms[norms != 0.0]).max(initial=-np.inf))
        gaps.append(abs(best - norm_log) / max(1.0, abs(norm_log)))
        value = np.exp(norm_log)
        for start, stop in draws.sweep(max(1, cfg.draws // 5), system.n):
            grown = iterate(system, phi, draws.field(n, start, stop, random_unit_stack), n)
            excess.append(_l1_norms(system, grown) - value * (1.0 + SLACK_TOL))
    worst_gap = float(np.max(gaps))
    worst_excess = float(np.concatenate(excess).max())
    return {
        "values": {
            "indicator_gap": worst_gap,
            "unit_ball_excess": worst_excess,
            "draws": cfg.draws,
        },
        "claims": [(worst_gap, cfg.threshold(ROUNDOFF_TOL)), (worst_excess, 0.0)],
    }


def _check_gelfand(system, cfg, draws):
    rounds = max(1, cfg.draws // 20)
    below = []
    final = []
    flagged = []
    for _, _, phis in draws.sweep(rounds, system.n, random_potentials):
        res = spectral_potential(system, phis, n_max=max(8, cfg.n_max))
        below.append(res.norm_sequence - res.value[:, None])
        final.append(np.abs(res.norm_sequence[:, -1] - res.value))
        flagged.append(res.flagged)
    worst_below = float(np.concatenate(below).min())
    flagged = int(np.concatenate(flagged).sum())
    return {
        "values": {
            "draws": rounds,
            "worst_approach_slack": worst_below,
            "final_gap": float(np.concatenate(final).max()),
            "flagged": flagged,
        },
        "claims": [(-worst_below, cfg.threshold(SLACK_TOL)), (flagged, 0)],
    }


def _check_power(system, cfg, draws):
    excess = []
    gaps = []
    for _, _, phis, ks in draws.sweep(cfg.draws, system.n, random_potentials, _integers(1, 6)):
        for k, rows in _horizon_rows(ks):
            res = power_gap(system, phis[rows], k)
            excess.append(res.scaled - res.power)
            gaps.append(res.gap)
    worst = float(np.concatenate(excess).max())
    strict = int((np.concatenate(gaps) > SLACK_TOL).sum())
    return {
        "values": {"draws": cfg.draws, "worst_excess": worst, "strict_gaps": strict},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_properties(system, cfg, draws):
    residuals = []
    for _, _, phis, psis, ts, shifts in draws.sweep(
        cfg.draws, system.n,
        random_potentials, random_potentials, _uniform(), _uniform(-3.0, 3.0),
    ):
        props = property_residuals(system, phis, psis, t=ts, shift=shifts)
        residuals += [
            props.monotonicity,
            props.additive_homogeneity,
            props.lipschitz,
            props.convexity,
            props.strong_invariance,
        ]
    worst = float(np.concatenate(residuals).max())
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_coboundary(system, cfg, draws):
    residuals = []
    for _, _, phis, psis in draws.sweep(cfg.draws, system.n, random_potentials, random_potentials):
        twisted = log_spectral_radius_batch(system, phis + psis[:, system.alpha] - psis)
        plain = log_spectral_radius_batch(system, phis)
        residuals.append(np.abs(twisted - plain))
    worst = float(np.concatenate(residuals).max())
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_submultiplicative(system, cfg, draws):
    horizon = _integers(1, cfg.n_max + 1)
    rounds = max(1, cfg.draws // 20)
    sweep = draws.sweep(rounds, system.n, random_potentials, horizon, horizon)
    # each draw's log norms at horizons n + k, n and k
    logs = np.concatenate(
        [_norm_logs(system, phis, np.stack([ns + ks, ns, ks])) for *_, phis, ns, ks in sweep],
        axis=1,
    )
    excess = logs[0] - (logs[1] + logs[2])
    # roundoff relative to the log norm, as in op_norm_oracle: log norms
    # near 10**4 lie one spacing, 2**-39, apart
    relative = float((excess / np.maximum(1.0, np.abs(logs[0]))).max())
    return {
        "values": {"draws": rounds, "worst_log_excess": float(excess.max())},
        "claims": [(relative, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_inner_certificate(system, cfg, draws):
    rounds = max(1, cfg.draws // 20)
    atomic = atomic_partition(system).members
    gaps = []
    # A draw holds its partition's members and its inner problem, arrays of
    # up to (N + 1) x N entries, until its lone solve.  tracemalloc measured
    # 2.0 such arrays per draw at N = 12 and 1.5 at N = 100, so a draw
    # counts as 2.
    for start, stop, law, split, ns in draws.sweep(
        rounds, 2 * system.n * (system.n + 1), _uniform(), _uniform(), _integers(1, 5)
    ):
        weights = np.empty((stop - start, system.n))
        rows = law < 0.5
        weights[rows] = draws.field(3, start, stop, random_invariant_weights, rows)
        weights[~rows] = draws.field(4, start, stop, random_simplex_weights, ~rows)
        members = _partition_members(draws, 5, start, stop, atomic, split)
        _require_partitions(members)
        for problem in _horizon_problems(system, members, weights, _horizon_rows(ns)):
            sol = maximize_inner(problem, tol=INNER_TOL)
            if sol.value != -np.inf:
                gaps.append(abs(certificate_sup(problem, sol) - 1.0))
    worst = float(np.max(gaps, initial=0.0))
    solved = len(gaps)
    return {
        "values": {"solved": solved, "divergent": rounds - solved, "worst_sup_gap": worst},
        "claims": [(worst, cfg.threshold(CERTIFICATE_TOL)), (-solved, -1)],
    }


def _check_near_minimizer(system, cfg, draws):
    widths = np.array([1.0, 0.1, 0.01])
    rounds = max(1, cfg.draws // 20)
    atomic = atomic_partition(system).members
    slacks = []
    # A draw holds arrays of up to (N + 1) x N entries: its partition, its
    # pushed members and inner problem, and its share of the batched
    # solver's padded matrices and Newton systems.  tracemalloc measured
    # 7.4 to 8.6 such arrays per draw at N = 12 and 5.1 to 6.7 at N = 100,
    # so a draw counts as 8.
    for start, stop, weights, split, ns, picks in draws.sweep(
        rounds, 8 * system.n * (system.n + 1),
        random_invariant_weights, _uniform(), _integers(1, 5), _integers(0, 3),
    ):
        members = _partition_members(draws, 4, start, stop, atomic, split)
        _require_partitions(members)
        bounds = near_minimizer_checks(system, members, weights, ns, widths[picks])
        slacks += [bounds.growth_slack, bounds.pairing_slack]
    worst = float(np.concatenate(slacks).min())
    return {
        "values": {"draws": rounds, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(SOLVER_SLACK_TOL))],
    }


def _check_tau_routes(system, cfg, draws):
    rounds = max(1, cfg.draws // 100)
    gaps = []
    for _, _, weights, seeds in draws.sweep(
        rounds, system.n, random_invariant_weights, _integers(0, 2**63)
    ):
        for w, seed in zip(weights, seeds.tolist()):
            mu = functional(system, w)
            dual = tau_dual(system, mu, cross_check=False)
            direct = tau_direct(system, mu, n_max=4, seed=seed)
            gaps.append(direct.value - dual.value)
    low = float(np.min(gaps))
    high = float(np.max(gaps))
    return {
        "values": {"draws": rounds, "smallest_gap": low, "largest_gap": high},
        "claims": [(-low, 0.0), (high, cfg.threshold(ROUTE_GAP_TOL))],
    }


def _check_empirical(system, cfg, draws):
    residuals = []
    for start, stop, xs, ns, phis in draws.sweep(
        cfg.draws, system.n,
        _integers(0, system.n), _integers(1, cfg.n_max + 1), random_potentials,
    ):
        weights = empirical_weights(system, xs, ns)
        # the pairing of each empirical measure with its potential, and the
        # Birkhoff average of that potential read at the row's own horizon
        lhs = _pairings(weights, phis)
        rhs = np.empty(stop - start)
        for n, rows in _horizon_rows(ns):
            s, _ = _transport(system, phis[rows], n)
            rhs[rows] = s[np.arange(rows.size), xs[rows]] / n
        residuals += [np.abs(lhs - rhs), np.abs(weights.sum(axis=1) - 1.0)]
    worst = float(np.concatenate(residuals).max())
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_tv(system, cfg, draws):
    dec = system.decomposition
    lengths = np.bincount(dec.cycle_of[dec.cycle_of >= 0])
    exact = []
    bound = []
    for _, _, xs, ns in draws.sweep(
        cfg.draws, system.n, _integers(0, system.n), _integers(1, 4 * system.n + 1)
    ):
        cycle = dec.terminal[xs]
        length = lengths[cycle]
        entry = dec.entry_time[xs]
        # the uniform measure of each row's terminal cycle
        uniform = np.where(dec.cycle_of == cycle[:, None], 1.0 / length[:, None], 0.0)
        weights = empirical_weights(system, xs, ns)
        tv = 0.5 * np.abs(weights - uniform).sum(axis=1)
        # on a cycle atom the distance has a closed form in n mod length
        r = ns % length
        exact.append(np.abs(tv - r * (length - r) / (ns * length))[entry == 0])
        bound.append(tv - (entry + length) / ns)
    worst_exact = float(np.concatenate(exact).max(initial=0.0))
    worst_bound = float(np.concatenate(bound).max())
    return {
        "values": {
            "draws": cfg.draws,
            "worst_formula_residual": worst_exact,
            "worst_decay_excess": worst_bound,
        },
        "claims": [(worst_exact, cfg.threshold(ROUNDOFF_TOL)), (worst_bound, 0.0)],
    }


def _check_estimate(system, cfg, draws):
    # one draw of each family; null charging only on a system with nulls
    laws = (random_invariant_weights, perturbed_invariant_weights, random_null_charging_weights)
    modes = (ESSENTIAL, ESSENTIAL, FULL)[: 3 if (~system.support).any() else 2]
    families = [
        functional(system, draws.field(f, 0, 1, law)[0], mode=mode)
        for f, (law, mode) in enumerate(zip(laws, modes))
    ]
    ratios = []
    rows = 0
    branches: set[str] = set()
    witness = None
    for mu in families:
        for eps in cfg.eps:
            rep = verify_estimate(system, mu, float(eps), range(1, cfg.n_max + 1))
            branches.add(rep.branch)
            rows += len(rep.rows)
            ratios.append(rep.worst_ratio)
            if not rep.all_hold and witness is None:
                n_bad, atom_bad = rep.worst_at
                witness = {
                    "mode": mu.mode,
                    "weights": [float(v) for v in mu.weights],
                    "eps": float(eps),
                    "n": n_bad,
                    "atom": atom_bad,
                    "ratio": rep.worst_ratio,
                }
    worst = float(np.max(ratios, initial=0.0))
    return {
        "values": {
            "rows": rows,
            "worst_ratio": worst,
            "branches": sorted(branches),
            "measures": len(families),
        },
        "claims": [(worst if witness else 0.0, 1.0)],
        "witness": witness,
    }


def _check_reduction(system, cfg, draws):
    # field 0 holds mu, field i * n_max + n the unit-ball draws of cell (i, n)
    mu = functional(system, draws.field(0, 0, 1, random_invariant_weights)[0])
    per_cell = max(1, cfg.draws // (cfg.n_max * len(cfg.eps)))
    excess = []
    for i, eps in enumerate(cfg.eps):
        nbhd = build_neighborhood(system, mu, float(eps))
        for n, s, an in orbit_sums(system, nbhd.phi, cfg.n_max):
            hits, rel = _hitting_mass(system, nbhd, n, s, an)
            fs = draws.field(i * cfg.n_max + n, 0, per_cell, random_unit_stack)
            excess.append(_hit_integrals(system, hits, an, fs) - float(rel.max()))
    worst = float(np.concatenate(excess).max())
    return {
        "values": {"worst_excess": worst, "per_cell": per_cell},
        "claims": [(worst, cfg.threshold(SLACK_TOL))],
    }


CHECKS = {
    "entstat.empirical": _check_empirical,
    "entstat.estimate": _check_estimate,
    "entstat.reduction": _check_reduction,
    "entstat.tv": _check_tv,
    "lemma.coboundary": _check_coboundary,
    "lemma.gelfand": _check_gelfand,
    "lemma.inner_certificate": _check_inner_certificate,
    "lemma.near_minimizer": _check_near_minimizer,
    "lemma.op_norm_oracle": _check_op_norm_oracle,
    "lemma.power": _check_power,
    "lemma.properties": _check_properties,
    "lemma.submultiplicative": _check_submultiplicative,
    "lemma.tau_routes": _check_tau_routes,
    "vp.dichotomy": _check_vp_dichotomy,
    "vp.gap": _check_vp_gap,
    "vp.subgradient": _check_vp_subgradient,
    "young.global": _check_young_global,
    "young.local": _check_young_local,
}

# A check's suite is the prefix of its name.
_SUITE_OF_PREFIX = {
    "young": "young", "vp": "vp", "lemma": "lemmas", "entstat": "entstat"
}
SUITES = {
    suite: tuple(name for name in sorted(CHECKS) if name.split(".")[0] == prefix)
    for prefix, suite in _SUITE_OF_PREFIX.items()
}
SUITES["all"] = tuple(sorted(CHECKS))


def _digest(system: FiniteSystem, cfg: CertifyConfig, name: str) -> str:
    blob = json.dumps(
        {
            "atoms": list(system.atoms),
            "measure": [float(v) for v in system.m],
            "map": [int(v) for v in system.alpha],
            "seed": int(cfg.seed),
            "draws": cfg.draws,
            "eps": [float(e) for e in cfg.eps],
            "n_max": cfg.n_max,
            "check": name,
        }
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def make_record(name, inputs, values, claims, witness=None, repro=None) -> dict:
    """One report record whose verdict and residual follow from its claims.

    A claim is an ``(observed, bound)`` pair that holds when
    ``observed <= bound``; a NaN observation fails with an infinite excess.
    The record passes when every claim holds, its residual is the largest
    excess ``observed - bound`` floored at 0 (so it is 0 exactly when the
    record passes), and ``repro`` is kept only on a failing record.
    """
    gaps = [observed - bound for observed, bound in claims]
    excess = max((np.inf if np.isnan(gap) else gap for gap in gaps), default=0.0)
    passed = excess <= 0.0
    record = {
        "name": name,
        "inputs": inputs,
        "values": values,
        "verdict": "pass" if passed else "fail",
        "residual": float(max(0.0, excess)),
        "witness": witness,
    }
    if repro is not None and not passed:
        record["repro"] = repro
    return record


def _repro(cfg: CertifyConfig) -> str | None:
    """The certify command that repeats a run of ``cfg``: the profile is
    the one whose draw count is ``cfg.draws``, and a draw count that no
    profile has cannot be repeated from the command line (None)."""
    profile = next((p for p, draws in PROFILES.items() if draws == cfg.draws), None)
    if profile is None:
        return None
    eps_text = ",".join(repr(float(e)) for e in cfg.eps)
    repro = (
        f"tentropy certify {cfg.system_label} --suite {cfg.suite}"
        f" --seed {cfg.seed} --profile {profile}"
        f" --n-max {cfg.n_max} --eps {eps_text}"
    )
    if cfg.tolerance is not None:
        repro += f" --tolerance {cfg.tolerance!r}"
    return repro


def run_check(system: FiniteSystem, name: str, cfg: CertifyConfig) -> dict:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    inputs = _digest(system, cfg, name)
    repro = _repro(cfg)
    try:
        out = CHECKS[name](system, cfg, _Draws(cfg.seed, name, system))
    except np.linalg.LinAlgError:
        # a ValueError, but a failure of the library, not bad input
        raise
    except (CertificateError, ValueError) as exc:
        witness = {"error": str(exc)}
        return make_record(name, inputs, {}, [(np.inf, 0.0)], witness, repro)
    return make_record(
        name, inputs, out["values"], out["claims"], out.get("witness"), repro
    )


def run_suite(system: FiniteSystem, cfg: CertifyConfig):
    """Records of all checks of the suite ``cfg.suite``, sorted by name."""
    require_valid(system)
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    return [run_check(system, name, cfg) for name in sorted(SUITES[cfg.suite])]
