"""Independent routes that the benchmark checks heatseries against.

Nothing here imports heatseries.  Moments come from closed forms evaluated
with ``math.lgamma``, Hermite functions from ``scipy.special.eval_hermite``,
reference solutions from closed forms (the Gaussian heat evolution and the
erf form for an indicator), and grid fields from one matrix product per
degree block.  Every comparison carries a rounding floor derived from the
magnitudes actually summed (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 4.2): ``gamma_n * max_x sum |c_alpha T_alpha(x)|``.
"""

from __future__ import annotations

import math
import sys

# numpy and scipy are imported inside the functions that need them, so that
# importing this module during set-up imports nothing the program might not.

EPS = sys.float_info.epsilon

#: Relative slack of the program's own exact-arithmetic checks (the CLI's).
ASSERT_SLACK = 1.0 + 1e-9

#: Extra floor, relative to the reference peak, for fields and moments that
#: the program computes by adaptive quadrature: ten times what QUADPACK is
#: asked for (1e-12 relative, 1e-13 absolute); the shell certificate adds
#: 1e-14.
QUAD_REL = 1e-11


def gamma_n(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) with u the unit roundoff."""
    nu = n * EPS / 2.0
    return nu / (1.0 - nu)


# ---------------------------------------------------------------------------
# closed-form moments: log |m_alpha|, or None where the moment is exactly 0


def gaussian_log_moment(alpha, amplitude: float, width: float):
    """m_alpha of amplitude * exp(-|x|^2 / 4 width): zero unless every
    component is even, else C (4 t0)^{(|a|+d)/2} prod Gamma((a_i+1)/2)."""
    if any(a % 2 for a in alpha):
        return None
    d, j = len(alpha), sum(alpha)
    return (
        math.log(amplitude)
        + 0.5 * (j + d) * math.log(4.0 * width)
        + math.fsum(math.lgamma((a + 1) / 2.0) for a in alpha)
    )


def evolved_gaussian_log_moment(alpha, amplitude: float, width: float, s: float):
    """m_alpha of the heat evolution at time s of the same Gaussian: again
    a Gaussian, of width t0 + s and amplitude C (t0 / (t0 + s))^{d/2}."""
    d = len(alpha)
    spread = width + s
    return gaussian_log_moment(
        alpha, amplitude * (width / spread) ** (d / 2.0), spread
    )


def indicator_log_moment(n: int, amplitude: float, half_width: float):
    """m_n of amplitude * 1[-h, h]: 2 C h^{n+1} / (n+1) for even n."""
    if n % 2:
        return None
    return math.log(2.0 * amplitude) + (n + 1) * math.log(half_width) - math.log(n + 1.0)


def radial_exp_log_moment(alpha):
    """m_alpha of exp(-|x|) in dim 2: Gamma(|a|+2) times the circle moment
    2 prod Gamma((a_i+1)/2) / Gamma((|a|+2)/2), zero for odd components."""
    if any(a % 2 for a in alpha):
        return None
    j = sum(alpha)
    return (
        math.lgamma(j + 2.0)
        + math.log(2.0)
        + math.fsum(math.lgamma((a + 1) / 2.0) for a in alpha)
        - math.lgamma((j + 2) / 2.0)
    )


def log_moment_mismatch(sign: int, logmag: float, expected) -> str | None:
    """Compare one table entry (sign, log|m|) with a closed form."""
    if expected is None:
        return None if sign == 0 else f"expected exact zero, got sign {sign}"
    if sign != 1:
        return f"expected a positive moment, got sign {sign}"
    if not abs(logmag - expected) <= QUAD_REL * max(1.0, abs(expected)):
        return f"log-moment {logmag!r} differs from closed form {expected!r}"
    return None


# ---------------------------------------------------------------------------
# reference solutions


def gaussian_solution(amplitude: float, width: float, axes, t: float):
    """amplitude (t0 / (t + t0))^{d/2} exp(-|x|^2 / 4 (t + t0)) on a grid."""
    import numpy as np

    spread = t + width
    scale = amplitude * (width / spread) ** (len(axes) / 2.0)
    factors = [np.exp(-ax * ax / (4.0 * spread)) for ax in axes]
    if len(axes) == 1:
        return scale * factors[0]
    return scale * np.multiply.outer(factors[0], factors[1])


def indicator_solution(amplitude: float, half_width: float, x, t: float):
    """Heat evolution of amplitude * 1[-h, h]: (C/2) (erf((h-x)/2sqrt t) + erf((h+x)/2sqrt t))."""
    from scipy.special import erf

    root = 2.0 * math.sqrt(t)
    return 0.5 * amplitude * (erf((half_width - x) / root) + erf((half_width + x) / root))


# ---------------------------------------------------------------------------
# truncated series on a grid, degree block by degree block


def _weighted_hermite(nmax: int, y):
    import numpy as np
    from scipy.special import eval_hermite

    n = np.arange(nmax + 1)[:, None]
    return eval_hermite(n, y[None, :]) * np.exp(-y * y)[None, :]


def _log_coefficient(log_moment: float, alpha, t: float) -> float:
    """log of m_alpha / alpha! pi^{-d/2} (4t)^{-(|a|+d)/2}."""
    d, j = len(alpha), sum(alpha)
    return (
        log_moment
        - math.fsum(math.lgamma(a + 1.0) for a in alpha)
        - 0.5 * d * math.log(math.pi)
        - 0.5 * (j + d) * math.log(4.0 * t)
    )


def series_sweep(log_moment, dim: int, kmax: int, t: float, axes, reference):
    """Yield (k, field, floor) for k = 0..kmax.

    ``field`` is the cumulative u_k over the grid (a view that the next
    step overwrites).  ``floor`` bounds the disagreement of two correctly
    rounded evaluations of |reference - u_k| at any node: twice gamma_m
    times the largest sum of term magnitudes, where m adds the number of
    terms summed, the depth 2k of the two Hermite recurrences behind each
    term, the largest |log c_alpha| (a coefficient assembled in log space
    and exponentiated carries that many ulps), and 16 for the remaining
    products and exponentials.
    """
    import numpy as np

    scale = 2.0 * math.sqrt(t)
    tables = [_weighted_hermite(kmax, np.asarray(ax, float) / scale) for ax in axes]
    field = np.zeros(reference.shape)
    magnitude = np.abs(reference)
    terms = 0
    log_range = 0.0
    for j in range(kmax + 1):
        rows = []
        for a in range(j + 1) if dim == 2 else (j,):
            alpha = (a, j - a) if dim == 2 else (j,)
            logm = log_moment(alpha)
            if logm is not None:
                log_c = _log_coefficient(logm, alpha, t)
                log_range = max(log_range, abs(log_c))
                rows.append((alpha, math.exp(log_c)))
        if rows:
            terms += len(rows)
            coeffs = np.array([c for _, c in rows])
            if dim == 1:
                block = tables[0][[al[0] for al, _ in rows]]
                field += coeffs @ block
                magnitude += np.abs(coeffs) @ np.abs(block)
            else:
                left = tables[0][[al[0] for al, _ in rows]]
                right = tables[1][[al[1] for al, _ in rows]]
                field += (left * coeffs[:, None]).T @ right
                magnitude += (np.abs(left) * np.abs(coeffs)[:, None]).T @ np.abs(right)
        depth = terms + 2 * j + math.ceil(log_range) + 16
        yield j, field, 2.0 * gamma_n(depth) * float(magnitude.max())


def check_error_curve(
    curve, kmax, log_moment, dim, t, axes, reference,
    extra_floor=0.0, origin_lb=False, node_values=(),
):
    """Check a measured error curve for every even k <= kmax against an
    independent sweep.

    Returns (problems, violations): ``problems`` lists failed checks,
    ``violations`` counts orders where the program's own exact-arithmetic
    verdict sup_error <= F_k (1 + 1e-9) does not hold.

    Per reported order k:
      * |sup_error - sup_x |reference - u_k|| <= floor_k + extra_floor;
      * sup_error <= F_k (1 + 1e-9) + floor_k + extra_floor;
      * with ``origin_lb``, the certified lower bound lb <= |u_k(0, t)|;
      * at each (grid index, {k: u_k}) of ``node_values``, the program's
        point value agrees with the independent field.
    """
    import numpy as np

    points = {p.k: p for p in curve.points}
    problems, violations = [], 0
    if sorted(points) != list(range(0, kmax + 1, 2)):
        problems.append(f"orders {sorted(points)} are not the even k <= {kmax}")
    centre = tuple(len(ax) // 2 for ax in axes)
    for k, field, floor in series_sweep(log_moment, dim, kmax, t, axes, reference):
        p = points.get(k)
        if p is None:
            continue
        slack = floor + extra_floor
        if not (math.isfinite(p.sup_error) and math.isfinite(p.F_k)):
            problems.append(f"k={k}: non-finite sup_error {p.sup_error!r} or F_k {p.F_k!r}")
            continue
        sup = float(np.max(np.abs(reference - field)))
        if not abs(p.sup_error - sup) <= slack:
            problems.append(
                f"k={k}: sup_error {p.sup_error!r}, independent {sup!r}, floor {slack!r}"
            )
        if not p.sup_error <= p.F_k * ASSERT_SLACK + slack:
            problems.append(f"k={k}: sup_error {p.sup_error!r} above F_k {p.F_k!r} + floor")
        if p.sup_error > p.F_k * ASSERT_SLACK:
            violations += 1
        if origin_lb and p.lb is not None:
            at_origin = abs(float(field[centre]))
            if not p.lb <= at_origin * ASSERT_SLACK + slack:
                problems.append(f"k={k}: lb {p.lb!r} above |u_k(0)| {at_origin!r}")
        for index, values in node_values:
            if k in values and not abs(values[k] - float(field[index])) <= slack:
                problems.append(
                    f"k={k}: point value {values[k]!r} at node {index} differs "
                    f"from the independent field {float(field[index])!r}"
                )
    if origin_lb and not any(p.lb is not None for p in curve.points):
        problems.append("no lower bound reported below the width")
    return problems, violations
