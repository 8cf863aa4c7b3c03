"""Rigorous and envelope bounds for the truncated expansions.

error_bound_F is the unconditional sup-norm bound on u - u_k built from the
degree-(k+1) absolute moments of the datum and the sharp sup bound on
Gaussian-weighted Hermite functions; error_bound_F_sweep gives it at many
orders from one pass over a moment table.  envelope_bound_G specializes it to
data dominated by a Gaussian envelope, where the moment sum collapses to a
closed form.  divergence_lower_bound certifies growth of |u_k(0, t)| below
the envelope width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel_approx import ApproxConfig
from .moments import Gaussian, MomentTable, moment_factors
from .signedlog import SignedLog, aligned_sum
from .specfun import log_factorial, log_gamma

_LOG_2PI = math.log(2.0 * math.pi)


def bonan_clark_log(n: int) -> float:
    """log of the sharp sup bound on |H_n| e^{-x^2}:
    2^{n/2} sqrt(n!) (n+1)^{-1/12}."""
    if n < 0:
        raise DomainError("order must be >= 0")
    return (
        0.5 * n * math.log(2.0)
        + 0.5 * log_gamma(n + 1.0)
        - math.log(n + 1.0) / 12.0
    )


def bonan_clark_bound(n: int) -> float:
    """Sup bound on |H_n(x)| e^{-x^2} over the line (inf past the double
    range; use bonan_clark_log for large n)."""
    log_value = bonan_clark_log(n)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def error_bound_F(table: MomentTable, cfg: ApproxConfig) -> SignedLog:
    """Unconditional bound on sup_x |u(x, t) - u_k(x, t)|:

        F(k) = (2 pi)^{-d/2} (2t)^{-(k+d+1)/2}
               sum_{|alpha| = k+1} ||x^alpha u0||_1 / sqrt(alpha!)
               * prod_i (alpha_i + 1)^{-1/12}.

    Needs the absolute moments at degree k+1, which the table's source
    datum supplies (they differ from the signed entries at odd degrees).
    This is :func:`error_bound_F_sweep` at the one order cfg.k.
    """
    if table.dim != cfg.dim:
        raise DomainError("table dimension does not match config")
    return error_bound_F_sweep(table, cfg.t, [cfg.k])[0]


def error_bound_F_sweep(table: MomentTable, t: float, orders) -> list[SignedLog]:
    """F(k) of :func:`error_bound_F` at time t for every k in ``orders``,
    from one pass over the degree shells stored in ``table.entries``.

    The absolute moments come factored from :func:`moment_factors`:
    a factor each shell shares, and a per-component log lookup.  Each
    multi-index's weight is the sum of its components' lookups, -ln(c!)/2
    and -ln(c+1)/12; each shell's weights are reduced by exponent alignment
    (:func:`aligned_sum`) and scaled by the shell's shared factor.
    """
    orders = list(orders)
    if not 0.0 < t < math.inf:
        raise DomainError(f"evaluation time t must be finite and > 0, got {t}")
    if any(k < 0 for k in orders):
        raise DomainError("truncation order k must be >= 0")
    top = max(orders, default=-1) + 1
    if top > table.k_max:
        raise DomainError(
            f"error_bound_F at k={top - 1} needs table degree {top}, "
            f"table has k_max={table.k_max}"
        )
    if table.source is None:
        raise DomainError(
            "error_bound_F needs a table that carries its source datum "
            "for absolute moments"
        )
    shared, logs = moment_factors(table.source, [k + 1 for k in orders], absolute=True)
    weight = [
        math.fsum((logs[c], -0.5 * log_factorial(c), -math.log(c + 1.0) / 12.0))
        for c in range(top + 1)
    ]
    shells: dict[int, list[SignedLog]] = {n: [] for n in shared}
    for a in table.entries:
        if a.degree > top:
            break
        terms = shells.get(a.degree)
        if terms is not None:
            terms.append(SignedLog(1, math.fsum(map(weight.__getitem__, a.components))))
    sums = {n: shared[n] * aligned_sum(terms) for n, terms in shells.items()}
    d = table.dim
    log_2t = math.log(2.0 * t)
    return [
        SignedLog.from_log(-0.5 * d * _LOG_2PI - 0.5 * (k + d + 1) * log_2t) * sums[k + 1]
        for k in orders
    ]


def envelope_bound_G(amplitude: float, width: float, cfg: ApproxConfig) -> SignedLog:
    """Closed-form envelope bound for |u0| <= amplitude * e^{-|x|^2/4 width}:

        G(k) = C (t0/t)^{(k+d+1)/2} (1 + (k+1)/d)^{-d/12}
               (k+d)! / ((k+1)! (d-1)!).

    At d=1 and t = t0 this is C (k+2)^{-1/12}.
    """
    if amplitude <= 0.0 or width <= 0.0:
        raise DomainError("envelope_bound_G requires positive amplitude and width")
    d, k, t = cfg.dim, cfg.k, cfg.t
    logmag = (
        math.log(amplitude)
        + 0.5 * (k + d + 1) * math.log(width / t)
        - d * math.log(1.0 + (k + 1.0) / d) / 12.0
        + log_gamma(k + d + 1.0)
        - log_gamma(k + 2.0)
        - log_gamma(float(d))
    )
    return SignedLog(1, logmag)


def divergence_lower_bound(
    amplitude: float, width: float, cfg: ApproxConfig
) -> SignedLog:
    """Lower bound on |u_k(0, t)| for Gaussian data below the width, t < t0.

    dim >= 2 (certified):
        C / ((4t)^{d/2} Gamma(d/2)) (t0/t - 1) (t0/t)^{floor(k/2) - 1}

    dim == 1 (shape only, prefactor normalised to 1; see
    fit_divergence_prefactor):
        (t0/t)^{floor(k/2)} sqrt(1 / (floor(k/2) - 1)),  floor(k/2) >= 2.
    """
    if amplitude <= 0.0 or width <= 0.0:
        raise DomainError("divergence_lower_bound requires positive amplitude/width")
    d, k, t = cfg.dim, cfg.k, cfg.t
    if not t < width:
        raise DomainError("divergence_lower_bound applies only for t < width")
    half = k // 2
    ratio = width / t
    if d == 1:
        if half < 2:
            raise DomainError("the dim-1 shape needs floor(k/2) >= 2")
        return SignedLog(
            1, half * math.log(ratio) - 0.5 * math.log(half - 1.0)
        )
    logmag = (
        math.log(amplitude)
        - 0.5 * d * math.log(4.0 * t)
        - log_gamma(d / 2.0)
        + math.log(ratio - 1.0)
        + (half - 1) * math.log(ratio)
    )
    return SignedLog(1, logmag)


def fit_divergence_prefactor(
    ks, values, width: float, t: float
) -> tuple[float, float]:
    """Least-squares fit of log|u_k(0, t)| against the dim-1 divergence shape.

    Returns (B, slope): B is exp of the mean log offset from the shape
    (t0/t)^{floor(k/2)} / sqrt(floor(k/2) - 1), and slope is the fitted
    log-growth of |u_k| per unit k (expected near log(t0/t) / 2).  The fit
    is diagnostic; nothing downstream treats B as certified.
    """
    ks = np.asarray(list(ks), dtype=float)
    logs = np.log(np.abs(np.asarray(list(values), dtype=float)))
    if ks.size < 2:
        raise DomainError("need at least two points to fit")
    halves = np.floor(ks / 2.0)
    shape = halves * math.log(width / t) - 0.5 * np.log(halves - 1.0)
    offset = float(np.mean(logs - shape))
    slope = float(np.polyfit(ks, logs, 1)[0])
    return math.exp(offset), slope


@dataclass
class BoundReport:
    """All applicable bounds at one truncation order."""

    k: int
    F_k: SignedLog
    G_k: SignedLog | None = None
    divergence_lb: SignedLog | None = None
    lb_shape_only: bool = False


def divergence_bound_applies(width: float, cfg: ApproxConfig) -> bool:
    """Whether divergence_lower_bound is defined at cfg for datum width
    ``width``: below the width, and past the dim-1 shape's first orders."""
    return cfg.t < width and (cfg.dim >= 2 or cfg.k // 2 >= 2)


def bound_report(table: MomentTable, cfg: ApproxConfig) -> BoundReport:
    """Assemble F plus whichever of G and the divergence bound apply."""
    return _report(table, cfg, error_bound_F(table, cfg))


def bound_report_sweep(table: MomentTable, t: float, orders) -> list[BoundReport]:
    """bound_report at time t for every k in ``orders``, with every F_k from
    one :func:`error_bound_F_sweep` pass."""
    orders = list(orders)
    return [
        _report(table, ApproxConfig(dim=table.dim, k=k, t=t), f_k)
        for k, f_k in zip(orders, error_bound_F_sweep(table, t, orders))
    ]


def _report(table: MomentTable, cfg: ApproxConfig, f_k: SignedLog) -> BoundReport:
    report = BoundReport(k=cfg.k, F_k=f_k)
    src = table.source
    if isinstance(src, Gaussian):
        report.G_k = envelope_bound_G(src.amplitude, src.width, cfg)
        if divergence_bound_applies(src.width, cfg):
            report.divergence_lb = divergence_lower_bound(
                src.amplitude, src.width, cfg
            )
            report.lb_shape_only = cfg.dim == 1
    return report
