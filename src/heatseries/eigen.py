"""Similarity variables and the Hermite eigenfunction expansion.

With z = x / (2 sqrt t) and tau = ln t, the rescaled solution
U(z, tau) = t^{d/2} u(x, t) expands over the weighted Hermite
eigenfunctions as

    U(z, tau) = e^{-|z|^2} sum_alpha a_alpha e^{-|alpha| tau / 2}
                prod_i H_{alpha_i}(z_i),

where a_alpha is 2^{-|alpha|-d} pi^{-d/2} / alpha! times the moment of the
solution at the coefficient time.  Truncating at |alpha| <= k reproduces
t^{d/2} u_k exactly, which eval_expansion is tested against.

Where the expansion is valid is read off the same coefficients.  By
Parseval's identity, integral H_alpha^2 e^{-|z|^2} dz = pi^{d/2} 2^{|alpha|}
alpha!, so the weighted energy of the initial datum's expansion is

    E(t) = integral e^{|z|^2} U^2 dz = sum_n S_n,
    S_n = pi^{d/2} t^{-n} sum_{|alpha| = n} 2^n alpha! a_alpha^2.

validity_integral applies Raabe's test to the top two nonzero shells
S_{M-1}, S_M: it returns the partial sum if (M - 1)(S_{M-1} / S_M - 1) > 1,
else math.inf.  For a Gaussian datum of width t0 the shell of degree 2m
gives S_m / S_{m+1} = (m + 1) / (q^2 (m + d/2)) with q = t0 / t, so for
t <= t0 the Raabe quantity is at most m (1 - d/2) / (m + d/2) < 1: no degree
calls the energy finite there.  Above t0 a finite degree is late: at degree
40, t up to about 1.013 t0 (dim 1), 1.025 t0 (dim 2) and 1.038 t0 (dim 3)
reads divergent; at degree 200, up to 1.002 t0 and 1.005 t0 in dims 1
and 2.  For other data the verdict of a finite degree can be wrong either
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_real
from .kernel_approx import _as_point, _point_terms, _sweep_orders
from .moments import InitialDatum, MomentTable, build_moment_table, moments_at_time
from .signedlog import aligned_sum_arrays, aligned_sums

_LOG_PI = math.log(math.pi)
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SimilarityPoint:
    """A point (z, tau) in similarity coordinates, z = x / (2 sqrt t) and
    tau = ln t; ``z`` is read as every point is (``kernel_approx._as_point``)."""

    z: tuple[float, ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "z", _as_point(self.z))
        check_real("similarity time tau", self.tau, -math.inf)

    @property
    def dim(self) -> int:
        return len(self.z)


class EigenCoeffs(MomentTable):
    """Expansion coefficients a_alpha computed from the solution moments at
    time ``t0_coeff`` (0 means the initial datum itself), held and written
    as a moment table whose header also carries ``t0_coeff``."""

    HEADER = MomentTable.HEADER + (("t0_coeff", "t0_coeff", float),)

    t0_coeff = 0.0

    def _check_header(self) -> None:
        super()._check_header()
        check_real("t0_coeff", self.t0_coeff, zero=True)


def eigen_coeffs(u0: InitialDatum, t0_coeff: float, k_max: int) -> EigenCoeffs:
    """Coefficients a_alpha = 2^{-|alpha|-d} pi^{-d/2} m_alpha(t0_coeff) / alpha!.

    The moments of the evolved solution come from the initial table through
    the closed-form moment evolution, so every datum variant is supported
    without nested quadrature.  The table's log magnitudes are shifted by
    one per-degree scale less ln alpha!, each row's logs added as a
    per-entry SignedLog product adds them.
    """
    check_real("t0_coeff", t0_coeff, zero=True)
    d = u0.dim
    table = build_moment_table(u0, k_max)
    if t0_coeff > 0.0:
        table = moments_at_time(table, t0_coeff)
    scale = np.array([-(j + d) * _LOG2 - 0.5 * d * _LOG_PI for j in range(k_max + 1)])
    logmag = table.logmag + (scale[table.degrees] - table.ln_factorials)
    return EigenCoeffs.from_arrays(
        table.signs, logmag, dim=d, k_max=k_max, t0_coeff=t0_coeff
    )


def eval_expansion(coeffs: EigenCoeffs, p: SimilarityPoint, k: int) -> float:
    """Truncated eigenfunction sum at (z, tau), SignedLog-aligned.

    Every term a_alpha e^{-|alpha| tau / 2} prod_i H_{alpha_i}(z_i) e^{-z_i^2}
    of degree <= k is a sign and a log magnitude gathered from the table's
    arrays, reduced like :func:`kernel_approx.eval_uk` with the bits of
    a per-term SignedLog loop.  Valid as an expansion of the solution only
    for tau >= ln(t0_coeff); the sum itself is evaluable anywhere.  This is
    the one-order case of :func:`eval_expansion_sweep`, which gathers a
    point's terms once for a whole sweep of orders and gives each order
    these bits.
    """
    (value,) = eval_expansion_sweep(coeffs, p, [k])
    return value


def eval_expansion_sweep(coeffs: EigenCoeffs, p: SimilarityPoint, ks) -> list[float]:
    """The truncated eigenfunction sum at (z, tau) for each order k in
    ``ks``, which must be non-empty, ascending and within [0, k_max]; the
    value for k equals ``eval_expansion(coeffs, p, k)`` bit for bit.

    The point's terms are gathered once, at the largest order, and each
    order's sum is the aligned sum over the prefix of them of degree <= k,
    which holds the terms an order-k gather makes, with their bits.  One
    call to :func:`aligned_sums` reduces every prefix, and prefixes whose
    largest term is the same share one exponential pass.
    """
    if p.dim != coeffs.dim:
        raise DomainError("point dimension does not match coefficients")
    ks = _sweep_orders(ks, coeffs.k_max)
    scales = [-0.5 * j * p.tau for j in range(ks[-1] + 1)]
    signs, logmag, cuts = _point_terms(coeffs, ks[-1], scales, p.z)
    cuts = cuts.tolist()
    return [s.to_float() for s in aligned_sums(signs, logmag, [(0, cuts[k]) for k in ks])]


def _energy_shells(coeffs: EigenCoeffs, t: float) -> np.ndarray:
    """ln S_n, degrees ascending, for every degree n holding a nonzero
    coefficient:

        S_n = pi^{d/2} t^{-n} sum_{|alpha| = n} 2^n alpha! a_alpha^2,

    each degree's span of terms reduced by :func:`aligned_sums`, the one
    log-space sum."""
    live = coeffs.signs != 0
    degrees = coeffs.degrees[live]
    logs = (
        2.0 * coeffs.logmag[live] + coeffs.ln_factorials[live]
        + degrees * (_LOG2 - math.log(t)) + 0.5 * coeffs.dim * _LOG_PI
    )
    starts = np.flatnonzero(np.diff(degrees, prepend=-1)).tolist()
    spans = list(zip(starts, starts[1:] + [len(logs)]))
    return np.array([s.logmag for s in aligned_sums(np.ones(len(logs), np.int8), logs, spans)])


def validity_integral(coeffs: EigenCoeffs, t: float) -> float:
    """The weighted energy E(t) of the expansion at time t as the partial
    sum of its degree shells, a lower bound on E(t) as every shell is
    positive, or math.inf where Raabe's test on the top two nonzero shells
    fails (see the module docstring).

    The coefficients must be the initial datum's (``t0_coeff`` 0), the only
    ones whose expansion is the solution's.
    """
    check_real("validity_integral time t", t)
    if coeffs.t0_coeff != 0.0:
        raise DomainError("validity_integral requires coefficients of the initial datum")
    shells = _energy_shells(coeffs, t)
    if len(shells) < 2:
        raise DomainError("validity_integral needs two nonzero degree shells")
    m = len(shells) - 1
    # Raabe's inequality, in logs: S_{M-1} / S_M > 1 + 1 / (M - 1)
    if m > 1 and shells[-2] - shells[-1] > math.log1p(1.0 / (m - 1)):
        return aligned_sum_arrays(np.ones(len(shells)), shells).to_float()
    return math.inf
