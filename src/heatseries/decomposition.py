"""Distributional Taylor decomposition of an integrable function.

A function f with enough decay splits, in the sense of distributions, as

    f = sum_{j <= k} ((-1)^j / j!) m_j(f) (d/dx)^j delta
        + (d/dx)^{k+1} F_{k+1},

where m_j are the moments and the remainder density is

    F_a(x) = (-1)^a (x^a / a!) a integral_1^inf (1 - 1/s)^{a-1} s^{a-1}
             f(x s) ds

(one dimension, a = k+1).  The substitution w = |x| (s - 1) turns this
into the Cauchy form of the Taylor remainder,

    F_a(x) = (-sgn x)^a / (a-1)! integral_0^inf w^{a-1} f(x + sgn(x) w) dw,

an integral of f over the half-line beyond x; F_a(0) = 0.  For a Gaussian
f = C e^{-x^2/(4 t0)} the substitution s = (|x| + w) / (2 sqrt(t0)) and
the repeated integrals of erfc (DLMF §7.18) give it in closed form,

    F_a(x) = (-sgn x)^a C (2 sqrt(t0))^a (sqrt(pi)/2) i^{a-1}erfc(|x| / (2 sqrt(t0))).

Every other datum is integrated in the Cauchy form by quadrature.

Pairing both sides with a smooth test function phi gives the identity
checked by decomposition_residual:

    integral f phi = sum_{j <= k} m_j(f) phi^{(j)}(0) / j!
        + (-1)^{k+1} integral F_{k+1} phi^{(k+1)},

the (-1)^{k+1} coming from moving the k+1 derivatives onto phi.  The
remainder obeys ||F_a||_1 <= ||x^a f||_1 / a!, with equality when f >= 0:
F_a then has one sign on each half-line, and Fubini's theorem turns
integral_0^inf |F_a| into integral_0^inf x^a f / a! (and likewise on the
negative half-line).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, check_integer, check_real
from .moments import Gaussian, Generic1D
from .quadrature import integrate_halfline_rows, integrate_line_rows, on_array
from .specfun import IERFC_MAX_ORDER, hermite, ierfc

#: What the functions here accept as f: a callable of one float (or of an
#: array, when it declares ``array_native``), a one-dimensional Gaussian or
#: a Generic1D datum.
Datum = Callable[[float], float] | Gaussian | Generic1D


def _one_dimensional(f) -> tuple[Callable, tuple[float, ...]]:
    """f's callable and breakpoints; DomainError unless f is a callable or
    datum of dimension 1."""
    dim = getattr(f, "dim", 1)
    if dim != 1:
        raise DomainError(f"the decomposition needs one-dimensional data, got dim {dim}")
    func, breakpoints = (f.func, f.breakpoints) if isinstance(f, Generic1D) else (f, ())
    if not callable(func):
        raise DomainError(f"the decomposition needs a callable datum, got {type(func).__name__}")
    return func, tuple(breakpoints)


def remainder(f: Datum, alpha: int, x):
    """Evaluate F_alpha at x, a float or an array of floats; F_a(0) = 0.

    A one-dimensional Gaussian with alpha - 1 <= IERFC_MAX_ORDER takes the
    closed form in i^{alpha-1}erfc.  Any other f takes the Cauchy form

        F_a(x) = (-sgn x)^a / (a-1)! integral_0^inf w^{a-1} f(x + sgn(x) w) dw,

    one half-line row per nonzero x, all rows in one batch, split where
    x + sgn(x) w meets a Generic1D breakpoint.  A row whose tail cannot be
    certified raises IntegrabilityError.  Wrapping a Gaussian, as in
    ``Generic1D(f)`` or ``lambda x: f(x)``, sends it down the quadrature
    route.
    """
    func, breakpoints = _one_dimensional(f)
    check_integer("remainder order", alpha, 1)
    points = np.asarray(x, dtype=float)
    if not np.isfinite(points).all():
        raise DomainError("remainder needs finite points")
    flat = points.ravel()
    out = np.zeros(flat.size)
    nonzero = np.flatnonzero(flat)
    if nonzero.size:
        xs = flat[nonzero]
        direction = np.sign(xs)
        if isinstance(f, Gaussian) and alpha - 1 <= IERFC_MAX_ORDER:
            out[nonzero] = (-direction) ** alpha * _gaussian_tail(f, alpha, np.abs(xs))
        else:
            fa = on_array(func)
            total = integrate_halfline_rows(
                lambda rows, w: w ** (alpha - 1) * fa(xs[rows] + direction[rows] * w),
                [tuple(s * (p - x) for p in breakpoints if s * (p - x) > 0.0)
                 for x, s in zip(xs.tolist(), direction.tolist())],
            )
            out[nonzero] = (-direction) ** alpha * total / math.factorial(alpha - 1)
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)


def _gaussian_tail(f: Gaussian, alpha: int, distance: np.ndarray) -> np.ndarray:
    """|F_alpha| at distance |x| from 0 for a one-dimensional Gaussian:
    C (2 sqrt(t0))^a (sqrt(pi)/2) i^{a-1}erfc(|x| / (2 sqrt(t0)))."""
    scale = 2.0 * math.sqrt(f.width)
    factor = f.amplitude * scale**alpha * (0.5 * math.sqrt(math.pi))
    return factor * ierfc(alpha - 1, distance / scale)


def remainder_l1_norm(f: Datum, alpha: int) -> float:
    """||F_alpha||_1 by quadrature over x of |remainder|: one quadrature for
    a Gaussian, a nested one (a remainder batch per outer panel level) for
    any other f."""
    _, breakpoints = _one_dimensional(f)
    check_integer("remainder order", alpha, 1)
    value = integrate_line_rows(
        lambda rows, x: np.abs(remainder(f, alpha, x)), [(0.0, *breakpoints)]
    )
    return float(value[0])


def gaussian_test_function(a: float = 1.0) -> Callable[[int, float], float]:
    """(n, x) -> phi^{(n)}(x) for phi(x) = e^{-a x^2}, by the Hermite closed
    form d^n/dx^n e^{-y^2} = (-1)^n H_n(y) e^{-y^2} with y = sqrt(a) x."""
    check_real("Gaussian test function a", a)
    root = math.sqrt(a)

    def deriv(n: int, x):
        y = root * x
        sign = -1.0 if n % 2 else 1.0
        return sign * root**n * hermite(n, y) * np.exp(-y * y)

    return deriv


def poly_gaussian_test_function(
    coeffs: Sequence[float], a: float = 1.0
) -> Callable[[int, float], float]:
    """(n, x) -> phi^{(n)}(x) for phi(x) = p(x) e^{-a x^2}, p given by
    ``coeffs`` (ascending powers).

    Derivatives come from the Leibniz rule; polynomial derivatives are
    exact, the Gaussian factor reuses the Hermite closed form.
    """
    coeffs = tuple(coeffs)
    for c in coeffs:
        check_real("test function coefficient", c, -math.inf)
    coeffs = tuple(map(float, coeffs))
    gauss = gaussian_test_function(a)

    def poly_deriv(m: int, x):
        total = 0.0
        for power in range(m, len(coeffs)):
            fall = 1.0
            for i in range(m):
                fall *= power - i
            total += coeffs[power] * fall * x ** (power - m)
        return total

    def deriv(n: int, x):
        total = 0.0
        binom = 1.0
        for m in range(n + 1):
            if m > 0:
                binom = binom * (n - m + 1) / m
            total += binom * poly_deriv(m, x) * gauss(n - m, x)
        return total

    return deriv


def decomposition_residual(f: Datum, k: int, phi: Callable[[int, float], float]) -> float:
    """|<f, phi> - Taylor terms - remainder pairing|; zero up to quadrature
    error when the decomposition holds.  ``phi(n, x)`` is the test
    function's n-th derivative at x, a float or an array, as the builders
    above return it.

    The pairing <f, phi> (row 0) and the moments m_0..m_k (rows 1..k+1) are
    one line-quadrature batch over f, split at a Generic1D's breakpoints.
    The remainder pairing is one more line quadrature of F_{k+1}
    phi^{(k+1)}: over the closed-form F_{k+1} for a Gaussian f, over
    the half-line quadrature of F_{k+1} (a nested quadrature) otherwise.
    """
    func, own = _one_dimensional(f)
    check_integer("k", k, 0)
    fa = on_array(func)

    def against_f(rows, x):
        fx = fa(x)
        return np.where(rows == 0, phi(0, x), x ** np.maximum(rows - 1, 0)) * fx

    lhs, *moments = integrate_line_rows(against_f, [own] * (k + 2))
    taylor = 0.0
    for j, moment in enumerate(moments):
        taylor += moment * phi(j, 0.0) / math.factorial(j)
    pair_sign = -1.0 if (k + 1) % 2 else 1.0
    pairing = pair_sign * integrate_line_rows(
        lambda rows, x: remainder(f, k + 1, x) * phi(k + 1, x),
        [(0.0, *own)],
    )[0]
    return float(abs(lhs - taylor - pairing))
