"""Similarity variables and the Hermite eigenfunction expansion.

With z = x / (2 sqrt t) and tau = ln t, the rescaled solution
U(z, tau) = t^{d/2} u(x, t) expands over the weighted Hermite
eigenfunctions as

    U(z, tau) = e^{-|z|^2} sum_alpha a_alpha e^{-|alpha| tau / 2}
                prod_i H_{alpha_i}(z_i),

where a_alpha is 2^{-|alpha|-d} pi^{-d/2} / alpha! times the moment of the
solution at the coefficient time.  Truncating at |alpha| <= k reproduces
t^{d/2} u_k exactly, which eval_expansion is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel_approx import _point_terms
from .moments import InitialDatum, MomentTable, build_moment_table, moments_at_time
from .quadrature import integrate_interval
from .signedlog import aligned_sum_arrays
from .specfun import log_gamma

_LOG_PI = math.log(math.pi)
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SimilarityPoint:
    """A point (z, tau) in similarity coordinates."""

    z: tuple[float, ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(c) for c in self.z))
        if not all(map(math.isfinite, self.z)) or not math.isfinite(self.tau):
            raise DomainError(f"similarity point ({self.z}, {self.tau}) is not finite")

    @property
    def dim(self) -> int:
        return len(self.z)


def to_similarity(x, t: float) -> SimilarityPoint:
    """(x, t) -> (z, tau) with z = x / (2 sqrt t), tau = ln t."""
    if not 0.0 < t < math.inf:
        raise DomainError("to_similarity requires finite t > 0")
    pt = (float(x),) if isinstance(x, (int, float)) else tuple(float(c) for c in x)
    root = 2.0 * math.sqrt(t)
    return SimilarityPoint(z=tuple(c / root for c in pt), tau=math.log(t))


def from_similarity(p: SimilarityPoint) -> tuple[tuple[float, ...], float]:
    """Inverse map: (z, tau) -> (x, t)."""
    t = math.exp(p.tau)
    root = 2.0 * math.sqrt(t)
    return tuple(c * root for c in p.z), t


class EigenCoeffs(MomentTable):
    """Expansion coefficients a_alpha computed from the solution moments at
    time ``t0_coeff`` (0 means the initial datum itself), held and written
    as a moment table whose header also carries ``t0_coeff``."""

    HEADER = MomentTable.HEADER + (("t0_coeff", "t0_coeff", float),)

    coeff = MomentTable.moment

    def __init__(self, dim: int, k_max: int, entries, source=None, t0_coeff: float = 0.0):
        self.t0_coeff = t0_coeff
        super().__init__(dim, k_max, entries, source)

    def _check_header(self) -> None:
        super()._check_header()
        if not 0.0 <= self.t0_coeff < math.inf:
            raise DomainError(f"t0_coeff must be finite and >= 0, got {self.t0_coeff}")


def eigen_coeffs(u0: InitialDatum, t0_coeff: float, k_max: int) -> EigenCoeffs:
    """Coefficients a_alpha = 2^{-|alpha|-d} pi^{-d/2} m_alpha(t0_coeff) / alpha!.

    The moments of the evolved solution come from the initial table through
    the closed-form moment evolution, so every datum variant is supported
    without nested quadrature.  The table's log magnitudes are shifted by
    one per-degree scale less ln alpha!, each row's logs added as a
    per-entry SignedLog product adds them.
    """
    if not 0.0 <= t0_coeff < math.inf:
        raise DomainError("t0_coeff must be finite and >= 0")
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
    for tau >= ln(t0_coeff); the sum itself is evaluable anywhere.
    """
    if p.dim != coeffs.dim:
        raise DomainError("point dimension does not match coefficients")
    if k > coeffs.k_max:
        raise DomainError("truncation order exceeds coefficient table")
    scales = [-0.5 * j * p.tau for j in range(k + 1)]
    signs, logmag, _ = _point_terms(coeffs, k, scales, p.z)
    return aligned_sum_arrays(signs, logmag).to_float()


def is_within_validity(coeffs: EigenCoeffs, p: SimilarityPoint) -> bool:
    """Whether (z, tau) lies in the regime where the expansion represents
    the solution (t > t0_coeff)."""
    if coeffs.t0_coeff == 0.0:
        return True
    return p.tau > math.log(coeffs.t0_coeff)


def validity_integral(u, t: float, dim: int) -> float:
    """The weighted energy integral of e^{|z|^2} U(z, tau)^2 over z.

    ``u`` is a solution evaluator called as u(x, t) with scalar x; for
    dim >= 2 it is read radially, u(|x|, t).  Integration proceeds over
    fixed-width shells in |z|; if three consecutive shell increments fail
    to halve, the integral is declared divergent and math.inf is returned.

    Fixed-width shells are what make the halving test discriminate: a
    Gaussian-type integrand e^{-beta r^2} gives increment ratios around
    e^{-beta h^2 (2k+1)}, which fall below 1/2 within a few shells for any
    decay rate beta the sweep distinguishes, while a growing integrand
    keeps every ratio at 1 or above.  Close to the borderline t = t0 of a
    Gaussian datum there is no clean verdict.  Measured with exact
    Gaussian evaluators, t up to about 1.003 t0 is called divergent, and a
    shell quadrature exhausts its panel budget and raises
    IntegrabilityError for t in about 1.004-1.025 t0 in dim 1 and
    1.007-1.03 t0 in dim 2.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("validity_integral requires finite t > 0")
    if dim < 1:
        raise DomainError("dim must be >= 1")
    root = 2.0 * math.sqrt(t)
    half_power = t ** (dim / 2.0)

    def integrand(radius: float) -> float:
        big_u = half_power * u(root * radius, t)
        if big_u == 0.0:
            return 0.0
        # assembled in log scale: e^{r^2} U^2 can overflow transiently even
        # when the product is moderate
        log_val = radius * radius + 2.0 * math.log(abs(big_u))
        if log_val > 700.0:
            return math.inf
        return math.exp(log_val)

    if dim == 1:
        def shell(lo, hi):
            return integrate_interval(integrand, lo, hi) + integrate_interval(
                lambda z: integrand(-z), lo, hi
            )
    else:
        surface = math.exp(
            0.5 * dim * _LOG_PI + _LOG2 - log_gamma(dim / 2.0)
        )

        def shell(lo, hi):
            return surface * integrate_interval(
                lambda rho: rho ** (dim - 1) * integrand(rho), lo, hi
            )

    total = 0.0
    increments: list[float] = []
    width = 8.0
    edges = [i * width for i in range(17)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece = shell(lo, hi)
        if not math.isfinite(piece):
            return math.inf
        total += piece
        increments.append(abs(piece))
        if abs(piece) <= 1e-12 * abs(total) + 1e-290:
            return total
        if len(increments) >= 4:
            a, b, c, d_ = increments[-4:]
            if b >= 0.5 * a and c >= 0.5 * b and d_ >= 0.5 * c:
                return math.inf
    # ran out of shells without a clean verdict; judge by the last trend
    if increments[-1] >= 0.5 * increments[-2]:
        return math.inf
    return total
