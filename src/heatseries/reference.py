"""Reference solutions and measured error curves.

The Gaussian initial datum evolves to another Gaussian; that closed form is
normalised so that it equals the convolution of the heat kernel with the
datum (checked against convolve_oracle, which integrates the convolution
directly and shares no code with the closed form).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .bounds import divergence_lower_bound, envelope_bound_G, error_bound_F_sweep
from .errors import DomainError, UnsupportedVariantError, check_integer, check_real
from .kernel_approx import ApproxConfig, SeriesGridEvaluator, _as_point
from .moments import Gaussian, Generic1D, MomentTable, Radial
from .quadrature import integrate_halfline_rows, integrate_line_rows, on_array
from .specfun import i0e


@dataclass(frozen=True)
class GridSpec:
    """Symmetric tensor grid: ``points`` per axis on [-extent, extent].

    ``points`` must be odd.  Each axis is its non-negative half mirrored,
    so the origin is an exact node and the axis equals its own negation
    reversed, bit for bit.
    """

    dim: int
    extent: float
    points: int

    def __post_init__(self):
        check_integer("dim", self.dim, 1)
        check_real("extent", self.extent)
        check_integer("points", self.points, 3)
        if self.points % 2 == 0:
            raise DomainError(f"points must be odd, got {self.points}")

    def axes(self) -> list[np.ndarray]:
        half = np.linspace(0.0, self.extent, self.points // 2 + 1)
        axis = np.concatenate([-half[:0:-1], half])
        return [axis.copy() for _ in range(self.dim)]


def default_grid(dim: int, t_max: float, width: float, points: int = 801) -> GridSpec:
    """Extent max(16 sqrt(t_max) + 4 sqrt(width), 13 sqrt(t_max + width)):
    wide enough that both the solution and the truncations are negligible
    at the boundary.  The solution spreads as t + width, and the coverage
    check needs e^{-E^2/4(t + width)} <= 1e-16, E >= 12.14 sqrt(t + width);
    the second term gives that below t = 0.61 width, where the first falls
    short, and the first term's extent is kept above."""
    check_real("t_max", t_max, zero=True)
    check_real("width", width, zero=True)
    extent = max(
        2.0 * math.sqrt(t_max) * 8.0 + 4.0 * math.sqrt(width),
        13.0 * math.sqrt(t_max + width),
    )
    return GridSpec(dim=dim, extent=extent, points=points)


def exact_gaussian_solution(
    amplitude: float, width: float, dim: int, x, t: float
) -> float:
    """Heat evolution of amplitude * e^{-|x|^2/4 width} at time t >= 0:

        u(x, t) = amplitude (t0 / (t + t0))^{d/2} e^{-|x|^2 / 4(t + t0)}.
    """
    check_real("Gaussian amplitude", amplitude)
    check_real("Gaussian width", width)
    check_integer("dim", dim, 1)
    check_real("exact_gaussian_solution time t", t, zero=True)
    sq = math.fsum(c * c for c in _as_point(x, dim))
    spread = t + width
    return (
        amplitude
        * (width / spread) ** (dim / 2.0)
        * math.exp(-sq / (4.0 * spread))
    )


def _exact_gaussian_field(
    amplitude: float, width: float, axes, t: float
) -> np.ndarray:
    spread = t + width
    factors = [np.exp(-ax * ax / (4.0 * spread)) for ax in axes]
    scale = amplitude * (width / spread) ** (len(axes) / 2.0)
    if len(axes) == 1:
        return scale * factors[0]
    return scale * np.multiply.outer(factors[0], factors[1])


def convolve_oracle(u0, x, t: float) -> float:
    """Solution at one point by direct quadrature of kernel * datum; the
    independent reference for everything else in this module.

    ``x`` is a float (dim 1) or a sequence of ``u0.dim`` coordinates.  This
    is the one-point case of the batch the reference field uses, so a node's
    value does not depend on whether it was computed alone or with the whole
    grid.
    """
    check_real("convolve_oracle time t", t)
    return float(_oracle(u0, np.array([_as_point(x, u0.dim)]), t)[0])


def _oracle(u0, points: np.ndarray, t: float) -> np.ndarray:
    """Solution at each line of ``points`` by quadrature.

    Generic1D and dim-1 Gaussian data integrate in the stretched variable
    u = (y - x)/(2 sqrt t), which keeps the integrand well scaled down to
    very small times; every point is one row of a line quadrature.  Radial
    and Gaussian data in dim 2 and 3 reduce to half-line integrals against
    the kernel's angular average (a scaled Bessel term in dim 2, a
    reflection difference in dim 3), one row per distinct radius.
    """
    d = u0.dim
    if isinstance(u0, Generic1D) or (isinstance(u0, Gaussian) and d == 1):
        x0 = points[:, 0]
        root = 2.0 * math.sqrt(t)
        func = u0 if isinstance(u0, Gaussian) else on_array(u0.func)
        datum_breaks = u0.breakpoints if isinstance(u0, Generic1D) else ()
        # breakpoints past |u| = 40 sit under a weight < e^{-1600} and only
        # stretch the initial panel until quadrature can miss the bump
        breakpoints = [
            [u for b in datum_breaks if abs(u := (b - xi) / root) <= 40.0]
            for xi in x0.tolist()
        ]
        return (1.0 / math.sqrt(math.pi)) * integrate_line_rows(
            lambda rows, u: np.exp(-u * u) * func(x0[rows] + root * u),
            breakpoints,
        )
    if d not in (2, 3):
        raise UnsupportedVariantError(
            f"convolve_oracle supports dim 1 plus radial dim 2 and 3, got dim {d}"
        )
    profile = u0 if isinstance(u0, Gaussian) else on_array(u0.profile)
    squares = points[:, 0] * points[:, 0]
    for axis in range(1, points.shape[1]):
        squares = squares + points[:, axis] * points[:, axis]
    radii, node_radius = np.unique(np.sqrt(squares), return_inverse=True)
    return _radial_oracle(profile, d, radii, t)[node_radius.ravel()]


def _radial_oracle(profile, d: int, radii: np.ndarray, t: float) -> np.ndarray:
    if d == 2:
        def integrand(rows, rho):
            r = radii[rows]
            gap = r - rho
            return (
                profile(rho)
                * rho
                * np.exp(-gap * gap / (4.0 * t))
                * i0e(r * rho / (2.0 * t))
            )

        return integrate_halfline_rows(
            integrand, [(r,) for r in radii.tolist()]
        ) / (2.0 * t)
    out = np.empty(radii.size)
    origin = radii < 1e-9
    if origin.any():
        value = integrate_halfline_rows(
            lambda rows, rho: profile(rho) * rho * rho * np.exp(-rho * rho / (4.0 * t)),
            [()],
        )[0]
        out[origin] = 4.0 * math.pi * (4.0 * math.pi * t) ** -1.5 * value
    away = radii[~origin]

    def integrand(rows, rho):
        r = away[rows]
        near = r - rho
        far = r + rho
        return (
            profile(rho)
            * rho
            * (np.exp(-near * near / (4.0 * t)) - np.exp(-far * far / (4.0 * t)))
        )

    value = integrate_halfline_rows(integrand, [(r,) for r in away.tolist()])
    out[~origin] = value / (away * math.sqrt(4.0 * math.pi * t))
    return out


def _reference_field(u0, axes, t: float) -> np.ndarray:
    if isinstance(u0, Gaussian):
        return _exact_gaussian_field(u0.amplitude, u0.width, axes, t)
    if len(axes) == 1:
        return _oracle(u0, axes[0][:, None], t)
    grid = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grid], axis=1)
    return _oracle(u0, points, t).reshape(grid[0].shape)


def _check_coverage(u0, grid: GridSpec, t: float) -> None:
    if not isinstance(u0, Gaussian):
        return
    # the criterion default_grid's extent is chosen to meet, in every dim
    if math.exp(-grid.extent**2 / (4.0 * (t + u0.width))) > 1e-16:
        warnings.warn(
            "grid extent may clip the solution support; sup errors can be "
            "underestimated",
            stacklevel=3,
        )


def _sweep_axes(u0, table: MomentTable, grid: GridSpec, k: int) -> list[np.ndarray]:
    """The axes an error sweep to order k evaluates on.

    When u0 is Gaussian or Radial and no live table row of degree <= k has
    an odd component, the reference and every u_k are even in each
    coordinate, and at mirrored nodes of the symmetric grid they agree bit
    for bit.  The sweep then takes only the nodes with every coordinate
    >= 0, which hold every value of the grid; otherwise it takes them all.
    """
    axes = grid.axes()
    rows = slice(0, table.ends[min(k, table.k_max)])
    odd = table.components[rows][table.signs[rows] != 0] % 2
    if isinstance(u0, (Gaussian, Radial)) and not odd.any():
        axes = [ax[grid.points // 2 :] for ax in axes]
    return axes


@dataclass
class ErrorPoint:
    """One truncation order: measured sup error plus applicable bounds.

    ``ratio`` is sup_error at k+2 over sup_error at k, present when both
    orders were measured and the denominator is positive.
    """

    k: int
    sup_error: float
    F_k: float
    G_k: float | None = None
    lb: float | None = None
    ratio: float | None = None


COLUMNS = tuple(f.name for f in fields(ErrorPoint))


@dataclass
class ErrorCurve:
    """The points, and the rounding floor of each one's sup_error (written
    to no table): sup_error <= F_k + floor holds in floating point."""

    points: list[ErrorPoint]
    floors: list[float]


def error_curve(
    u0,
    table: MomentTable,
    dim: int,
    t: float,
    k_max: int,
    grid: GridSpec,
    even_only: bool = True,
) -> ErrorCurve:
    """Measured sup errors and bounds for k = 0..k_max.

    The table must extend to degree k_max + 1 so F is defined at the last
    order, and must record its datum, u0 itself, whose absolute moments F
    reads; a table read from JSON records none and is refused before any
    sweep.  The sup errors of every order come from one banded sweep
    (:meth:`SeriesGridEvaluator.sup_errors`) that accumulates each row band
    incrementally and holds no truncation field of the whole grid, so the
    sweep costs about as much as the single largest k.  For even data the
    sweep covers only the grid's non-negative orthant, which holds every
    value of the grid (:func:`_sweep_axes`).  F of every order comes from
    one pass over the table (:func:`error_bound_F_sweep`); a Gaussian u0
    adds G and, below its width, the divergence bound where it is positive.
    Each order's rounding floor comes from
    :meth:`SeriesGridEvaluator.rounding_floors` at the largest |reference|.
    """
    check_real("evaluation time t", t)
    check_integer("k_max", k_max, 0)
    if table.k_max < k_max + 1:
        raise DomainError(
            f"error_curve to k_max={k_max} needs table degree {k_max + 1}"
        )
    if not grid.dim == table.dim == dim:
        raise DomainError(f"table dim {table.dim} and grid dim {grid.dim} must equal dim {dim}")
    if table.source is None:
        raise DomainError("error_curve needs a table that records its source datum")
    if u0 != table.source:
        raise DomainError(f"the table was built from {table.source!r}, not from {u0!r}")
    orders = range(0, k_max + 1, 2 if even_only else 1)
    axes = _sweep_axes(u0, table, grid, k_max)
    _check_coverage(u0, grid, t)
    evaluator = SeriesGridEvaluator(table, t, axes, k_cap=k_max)
    reference = _reference_field(u0, axes, t)
    sups = evaluator.sup_errors(reference, orders)
    # max |reference| with no temporary; NaN if a node is NaN
    peak = float(max(reference.max(), -reference.min()))
    points = []
    for k, sup, f_k in zip(orders, sups, error_bound_F_sweep(table, t, orders)):
        point = ErrorPoint(k=k, sup_error=sup, F_k=f_k.to_float())
        if isinstance(u0, Gaussian):
            cfg = ApproxConfig(dim=dim, k=k, t=t)
            point.G_k = envelope_bound_G(u0.amplitude, u0.width, cfg).to_float()
            if t < u0.width:
                lb = divergence_lower_bound(u0.amplitude, u0.width, cfg)
                point.lb = lb.to_float() if lb.sign > 0 else None
        points.append(point)
    by_order = {p.k: p for p in points}
    for p in points:
        after = by_order.get(p.k + 2)
        if after is not None and p.sup_error > 0.0:
            p.ratio = after.sup_error / p.sup_error
    return ErrorCurve(points=points, floors=evaluator.rounding_floors(orders, peak))
