"""The bounds of every claim the library checks, and the error of a failed one.

Each tolerance is named by its role, and a claim's library assertion and the
bound its ``certify`` check states read the same name, so every decision of
how close is close enough lives here.  ``CertificateError`` is raised when a
computed value misses the law it is checked against: a failed claim, never
bad input (``ValueError``).  A check reduces its observations with
whole-array numpy reductions, which keep a NaN, so a claim that cannot be
evaluated fails.  This module imports nothing.
"""

# Defects that must vanish exactly up to float noise: invariance, positivity
# and normalization of functionals, their charge on null atoms, and the
# column sums of a partition of unity.
EXACT_TOL = 1e-12

# Cycle means this close to the largest one tie: the witness cycle of
# spectral_potential, the face of variational_principle and the tied cycles
# of tau_dual's descent.
TIE_TOL = 1e-12

# Roundoff of identities and inequalities exact in real arithmetic: power_gap
# and lemma.power, lemma.properties, lemma.coboundary,
# lemma.submultiplicative (relative), entstat.empirical, entstat.tv, the
# indicator gap of lemma.op_norm_oracle (relative), iterate's closed form,
# growth_constant's decay test and the pad that keeps tau_direct's bounds
# upper bounds.
ROUNDOFF_TOL = 1e-12

# Slack of the laws whose sides carry no solver tolerance: young_checks and
# young.global (also its tight count), variational_principle and vp.gap,
# subgradient and vp.subgradient, the norm approach of spectral_potential and
# lemma.gelfand, the strict gaps of lemma.power, the unit-ball excess of
# lemma.op_norm_oracle (relative), entstat.reduction, the hitting-mass
# estimate (relative), the decay of divergence rays, the hull rebuild of
# hull_means, the ratio field's normalization identity and the negative
# value that ends tau_dual's descent.
SLACK_TOL = 1e-9

# Solver tolerance of the certified inner solves: lemma.inner_certificate and
# the near-minimizer of near_minimizer_checks (and so near_minimizer_bounds)
# and lemma.near_minimizer.
INNER_TOL = 1e-9

# Slack of the laws whose sides come from inner solves: local_young_checks
# and young.local, near_minimizer_checks (and so near_minimizer_bounds) and
# lemma.near_minimizer.
SOLVER_SLACK_TOL = 1e-8

# Solver tolerance of tau_direct's candidates, below which their bounds tie,
# and the default tol of maximize_inner, maximize_inner_batch and tau_n.
DIRECT_TOL = 1e-8

# Largest excess of the optimality ratio field over 1 at a returned inner
# optimum: certificate_sup and lemma.inner_certificate.
CERTIFICATE_TOL = 1e-6

# Most negative best value of tau_dual's descent cross-check on a hull point.
DESCENT_TOL = 1e-6

# Largest gap of the direct route over the dual value: lemma.tau_routes and
# the tau.direct record of the tau command.
ROUTE_GAP_TOL = 1e-3

# Positive floors, not tolerances.  BUCKET_PAD widens tau_direct's
# oscillation buckets so a constant Birkhoff sum still gets a positive width;
# NORM_FLOOR is the L1 norm below which random_unit_stack takes an indicator
# rather than divide.
BUCKET_PAD = 1e-9
NORM_FLOOR = 1e-9


class CertificateError(RuntimeError):
    """A computed value failed the law it is checked against."""
