"""Special-function kernel: Hermite and generalized Laguerre recurrences,
log-Gamma, the repeated integrals of erfc and the scaled modified Bessel
function e^{-|x|} I_0(x); Gaussian-weighted Hermite values come back as
signs and logs, or as SignedLog scalars (defined in signedlog), and their
sup bound as a log (bonan_clark_log, or bonan_clark_logs at every order
up to n).

The polynomials are evaluated through three-term recurrences, log-Gamma
is the C library's ``lgamma`` (through ``math.lgamma``) and the Bessel
function sums fixed Chebyshev tables; no series is truncated adaptively,
so results are deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, check_integer, check_real
from .signedlog import ZERO, SignedLog

#: Hard cap on recurrence depth for the polynomial evaluators.
RECURRENCE_DEPTH_CAP = 400

#: Highest order :func:`ierfc` evaluates, and the relative accuracy its
#: tests hold it to for every order up to this one.
IERFC_MAX_ORDER = 8
IERFC_RTOL = 1e-13

#: :func:`ierfc` uses the forward recurrence below this z and, from it
#: on, a Gauss-Legendre rule on equal panels of [0, _IERFC_CUTOFF].
IERFC_SWITCH = 0.75
_IERFC_CUTOFF = 64.0
_IERFC_PANELS = 8

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_LOG_2 = math.log(2.0)


def log_gamma(z: float) -> float:
    """Natural log of Gamma(z) for finite z > 0: ``math.lgamma`` behind a
    domain guard that also rejects NaN and inf.  Past z ~ 2.5e305 the
    value leaves the double range and comes back as inf."""
    check_real("log_gamma z", z)
    try:
        return math.lgamma(z)
    except OverflowError:
        return math.inf


def log_gamma_halves(n: int) -> list[float]:
    """ln Gamma((c+1)/2) for c = 0..n: the per-component factor of a
    Gaussian or radial moment at entry c.

    Moment routines read this lookup instead of calling :func:`log_gamma`
    once per multi-index component; every entry is the same double that
    call returns.
    """
    check_integer("log_gamma_halves n", n, 0)
    return [math.lgamma((c + 1) / 2.0) for c in range(n + 1)]


def log_factorial(n: int) -> float:
    """ln(n!) for an integer n >= 0."""
    check_integer("log_factorial n", n, 0)
    return log_gamma(n + 1.0)


def ierfc(n: int, z):
    """Repeated integral of the complementary error function (DLMF §7.18),

        i^n erfc(z) = (2/sqrt(pi)) integral_z^inf (s - z)^n / n! e^{-s^2} ds,

    for an integer -1 <= n <= IERFC_MAX_ORDER and finite z >= 0, a float or
    an array; i^{-1}erfc(z) = (2/sqrt(pi)) e^{-z^2} and i^0 erfc = erfc.

    Below z = IERFC_SWITCH the forward recurrence

        n i^n erfc(z) = -z i^{n-1}erfc(z) + (1/2) i^{n-2}erfc(z)

    runs up from i^{-1}erfc and erfc (``math.erfc``).  It is unstable for
    z > 0, where it amplifies a solution that grows against i^n erfc: over
    n <= 8 its relative error reaches about 4e-12 by z = 2 and 1e-6 by
    z = 6.  From IERFC_SWITCH on, the substitution s = z + v / (2z) gives
    a positive integrand,

        i^n erfc(z) = (2/sqrt(pi)) e^{-z^2} (2z)^{-n-1} / n!
                      integral_0^inf v^n e^{-v} e^{-v^2 / (4 z^2)} dv,

    evaluated by the 24-point Gauss-Legendre rule on each of 8 equal panels
    of [0, 64]; the part past v = 64, at most
    e^{-1024 / z^2} n! e^{-64} sum_{j <= n} 64^j / j!, is under 1e-18 of the
    integral for n <= 8.
    e^{-z^2} is taken as e^{-h^2} e^{-(z-h)(z+h)} with h the leading 26
    bits of z, so h^2 is exact and the large argument is not rounded.

    Tested for every order -1 <= n <= 8 and z on [0, 26.5], where the
    value is a normal float: the relative error stays below IERFC_RTOL
    (measured: at most 6.3e-15).  Past z ~ 26.6 the value leaves the
    normal range.
    """
    check_integer("ierfc order", n, -1, IERFC_MAX_ORDER)
    z = np.asarray(z, dtype=float)
    if not (np.isfinite(z).all() and (z >= 0.0).all()):
        raise DomainError("ierfc needs finite z >= 0")
    flat = z.ravel()
    if n == -1:
        out = _TWO_OVER_SQRT_PI * _exp_minus_square(flat)
    else:
        out = np.empty(flat.size)
        low = flat < IERFC_SWITCH
        out[low] = _ierfc_forward(n, flat[low])
        out[~low] = _ierfc_scaled(n, flat[~low])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _exp_minus_square(z: np.ndarray) -> np.ndarray:
    """e^{-z^2} for z >= 0 without rounding z^2: Veltkamp's split leaves h
    with 26 significant bits.  Past z = 40 the value is 0 either way."""
    z = np.minimum(z, 40.0)
    scaled = z * 134217729.0  # 2^27 + 1
    h = scaled - (scaled - z)
    with np.errstate(under="ignore"):
        return np.exp(-h * h) * np.exp(-(z - h) * (z + h))


def _ierfc_forward(n: int, z: np.ndarray) -> np.ndarray:
    prev = _TWO_OVER_SQRT_PI * np.exp(-z * z)
    cur = np.fromiter(map(math.erfc, z.tolist()), dtype=float, count=z.size)
    for m in range(1, n + 1):
        prev, cur = cur, (-z * cur + 0.5 * prev) / m
    return cur


def _ierfc_scaled(n: int, z: np.ndarray) -> np.ndarray:
    nodes, weights = _scaled_rule(n)
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(-(nodes * nodes) / (4.0 * z * z)[:, None])
        # one pairwise sum per row, so a value does not depend on the others
        integral = (decay * weights).sum(axis=-1)
        return _TWO_OVER_SQRT_PI * _exp_minus_square(z) / (2.0 * z) ** (n + 1) * integral


@lru_cache(maxsize=None)
def _scaled_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes v and weights w v^n e^{-v} / n! of the 24-point Gauss-Legendre
    rule on each of _IERFC_PANELS equal panels of [0, _IERFC_CUTOFF].  One
    entry per order, at most IERFC_MAX_ORDER + 2 of them."""
    x, w = leggauss(24)
    half = 0.5 * _IERFC_CUTOFF / _IERFC_PANELS
    mids = half * (2.0 * np.arange(_IERFC_PANELS) + 1.0)
    nodes = (mids[:, None] + half * x).ravel()
    weights = np.tile(half * w, _IERFC_PANELS) * nodes**n * np.exp(-nodes) / math.factorial(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# Chebyshev tables, highest order first, of e^{-x} I_0(x) on [0, 8] (_I0E_A,
# summed at x/2 - 2) and of e^{-x} I_0(x) sqrt(x) on (8, inf] (_I0E_B, summed
# at 32/x - 2): the tables A and B of Cephes's i0.c (S. L. Moshier, Methods
# and Programs for Mathematical Functions, 1989), copied digit for digit.
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18,
    4.46562142029675999901E-17, 3.46122286769746109310E-17,
    -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15,
    -9.55484669882830764870E-15, -4.15056934728722208663E-14,
    1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12,
    -1.32158118404477131188E-11, -3.14991652796324136454E-11,
    1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8,
    2.04891858946906374183E-7, 2.89137052083475648297E-6,
    6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def i0e(x):
    """Exponentially scaled modified Bessel function of order zero,
    e^{-|x|} I_0(x), for a float or an array: Cephes's ``i0e``.

    For |x| <= 8 it is the Chebyshev sum of table A at |x|/2 - 2; above, the
    sum of table B at 32/|x| - 2 divided by sqrt(|x|).  Each branch runs
    once over its part of the array.  The sums keep Cephes's operation
    order, so each value has the bits of Cephes's own.  NaN gives NaN.
    """
    x = np.abs(np.asarray(x, dtype=float))
    flat = x.ravel()
    out = np.empty(flat.size)
    low = flat <= 8.0
    out[low] = _chbevl(flat[low] / 2.0 - 2.0, _I0E_A)
    high = flat[~low]
    out[~low] = _chbevl(32.0 / high - 2.0, _I0E_B) / np.sqrt(high)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _chbevl(y: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Cephes's ``chbevl``: Clenshaw's recurrence for sum_j c_j T_j(y/2)
    with ``coeffs`` highest order first, the constant term (the last one)
    halved.  The order of operations is Cephes's; rearranging it moves the
    bits."""
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2 = b1
        b1 = b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) by the recurrence
    H_{n+1} = 2 x H_n - 2 n H_{n-1}.

    Values may overflow to +-inf for large n and |x|; use
    :func:`hermite_weighted` when the Gaussian-weighted value is wanted.
    """
    return _hermite_values(n, x)[-1]


def _hermite_values(n: int, x) -> list:
    """H_0(x) .. H_n(x) from one pass of :func:`hermite`'s recurrence."""
    check_integer("hermite order", n, 0, RECURRENCE_DEPTH_CAP)
    values = [1.0, 2.0 * x][: n + 1]
    for m in range(1, n):
        values.append(2.0 * x * values[m] - 2.0 * m * values[m - 1])
    return values


def bonan_clark_log(n: int) -> float:
    """log of the sharp sup bound on |H_n| e^{-x^2}:
    2^{n/2} sqrt(n!) (n+1)^{-1/12}.  The last entry of
    :func:`bonan_clark_logs`."""
    check_integer("order", n, 0)
    return _bonan_clark(n, log_gamma(n + 1.0))


def bonan_clark_logs(n: int) -> list[float]:
    """:func:`bonan_clark_log` at every order 0..n from one pass, each
    entry the double that call returns."""
    check_integer("order", n, 0)
    return [_bonan_clark(m, math.lgamma(m + 1.0)) for m in range(n + 1)]


def _bonan_clark(n: int, ln_factorial: float) -> float:
    return 0.5 * n * _LOG_2 + 0.5 * ln_factorial - math.log(n + 1.0) / 12.0


def hermite_weighted(n: int, x: float) -> SignedLog:
    """H_n(x) * exp(-x^2) as a SignedLog, overflow-safe for any order
    up to the recurrence cap: the last entry of
    :func:`hermite_weighted_logs`.
    """
    check_integer("hermite_weighted order", n, 0, RECURRENCE_DEPTH_CAP)
    signs, logs = hermite_weighted_logs(n, x)
    return SignedLog(signs[-1], logs[-1]) if signs[-1] else ZERO


def hermite_weighted_sequence(n_max: int, x: float) -> list[SignedLog]:
    """All of H_0(x) e^{-x^2} .. H_{n_max}(x) e^{-x^2} as SignedLog values:
    :func:`hermite_weighted_logs` entry by entry."""
    check_integer("hermite_weighted_sequence order", n_max, 0, RECURRENCE_DEPTH_CAP)
    signs, logs = hermite_weighted_logs(n_max, x)
    return [SignedLog(s, v) if s else ZERO for s, v in zip(signs, logs)]


def hermite_weighted_logs(n_max: int, x: float) -> tuple[list[int], list[float]]:
    """H_0(x) e^{-x^2} .. H_{n_max}(x) e^{-x^2} from one recurrence pass, as
    (signs, logs): sign in {-1, 0, 1} and ln |H_n(x)| - x^2, with log 0.0
    where the value is exactly zero.

    The recurrence runs on values scaled by a running power of two, so the
    rescaling steps are exact and only the pair of multiply-adds per step
    rounds.
    """
    check_integer("hermite_weighted_logs order", n_max, 0, RECURRENCE_DEPTH_CAP)
    shift = -x * x  # log of the common scale carried outside the recurrence
    prev, cur = 0.0, 1.0  # scaled H_{-1}, H_0
    signs, logs = [1], [shift + math.log(cur)]
    for m in range(n_max):
        prev, cur = cur, 2.0 * x * cur - 2.0 * m * prev
        big = max(abs(prev), abs(cur))
        if big > 1e250:
            exp2 = math.frexp(big)[1]
            prev = math.ldexp(prev, -exp2)
            cur = math.ldexp(cur, -exp2)
            shift += exp2 * math.log(2.0)
        if cur == 0.0:
            signs.append(0)
            logs.append(0.0)
        else:
            signs.append(1 if cur > 0.0 else -1)
            logs.append(shift + math.log(abs(cur)))
    return signs, logs


def laguerre_sequence(n_max: int, a: float, x: float) -> list[float]:
    """L_0^{(a)}(x) .. L_{n_max}^{(a)}(x) for finite a > -1 and finite x
    from one pass of

        (n+1) L_{n+1} = (2n + 1 + a - x) L_n - (n + a) L_{n-1}.
    """
    check_real("laguerre a", a, -1.0)
    check_real("laguerre x", x, -math.inf)
    check_integer("laguerre order", n_max, 0, RECURRENCE_DEPTH_CAP)
    prev, cur = 0.0, 1.0  # L_{-1}, L_0
    out = [cur]
    for m in range(n_max):
        prev, cur = cur, ((2.0 * m + 1.0 + a - x) * cur - (m + a) * prev) / (m + 1.0)
        out.append(cur)
    return out
