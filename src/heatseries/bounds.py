"""Rigorous and envelope bounds for the truncated expansions.

error_bound_F is the unconditional sup-norm bound on u - u_k built from the
degree-(k+1) absolute moments of the datum and the sharp sup bound on
Gaussian-weighted Hermite functions; error_bound_F_sweep gives it at many
orders from one pass over a moment table.  envelope_bound_G specializes it to
data dominated by a Gaussian envelope, where the moment sum collapses to a
closed form.  For Gaussian data the series at the origin is a closed-form
binomial series (gaussian_origin_blocks), from which divergence_lower_bound
certifies the growth of |u_k(0, t)| below the envelope width, t < t0, in
every dimension; divergence_lower_bound_sweep gives it at many orders from
one pass of the blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_integer, check_real
from .kernel_approx import ApproxConfig, _sweep_orders
from .moments import MomentTable, component_sums, moment_factors
from .signedlog import LOG_ROUNDING, ZERO, SignedLog, aligned_sum_arrays, aligned_sums
from .specfun import log_factorial, log_gamma

_LOG_2PI = math.log(2.0 * math.pi)


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
    from one pass over the degree shells of the table's multi-indices.

    The absolute moments come factored from :func:`moment_factors`:
    a factor each shell shares, and a per-component log lookup.  Each
    multi-index's weight is the sum of its components' lookups, -ln(c!)/2
    and -ln(c+1)/12; one :func:`aligned_sums` call reduces each needed
    shell's span of the weights, with the bits of a reduction of that shell
    alone, and each shell sum is scaled by the shell's shared factor.
    """
    try:
        orders = list(orders)
    except TypeError:
        raise DomainError(f"truncation orders must be an iterable, got {orders!r}") from None
    check_real("evaluation time t", t)
    for k in orders:
        check_integer("truncation order k", k, 0)
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
    ends, starts = table.ends.tolist(), (table.ends - table.counts).tolist()
    base = starts[min(shared, default=0)]
    weights = component_sums(weight, table.components[base : ends[top]])
    spans = [(starts[n] - base, ends[n] - base) for n in shared]
    totals = aligned_sums(np.ones(len(weights), np.int8), weights, spans)
    sums = {n: shared[n] * total for n, total in zip(shared, totals)}
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
    check_real("Gaussian amplitude", amplitude)
    check_real("Gaussian width", width)
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


def gaussian_origin_blocks(
    amplitude: float, width: float, dim: int, t: float, N: int
) -> list[SignedLog]:
    """The blocks a_0..a_N of u_k(0, t) = sum_{n <= floor(k/2)} a_n for the
    datum C e^{-|x|^2/4 t0}, with q = t0/t:

        a_n = C q^{d/2} (-q)^n Gamma(n + d/2) / (Gamma(d/2) n!).

    a_n is the degree-2n term of the series at the origin; the odd-degree
    terms vanish there.  Summed to infinity this is the binomial series of
    u(0, t) = C q^{d/2} (1 + q)^{-d/2}, which converges for q < 1 only.
    """
    check_real("Gaussian amplitude", amplitude)
    check_real("Gaussian width", width)
    check_real("evaluation time t", t)
    check_integer("dim", dim, 1)
    check_integer("N", N, 0)
    log_q = math.log(width / t)
    base = math.log(amplitude) + 0.5 * dim * log_q - math.lgamma(0.5 * dim)
    return [
        SignedLog(
            -1 if n % 2 else 1,
            base + n * log_q + math.lgamma(n + 0.5 * dim) - math.lgamma(n + 1.0),
        )
        for n in range(N + 1)
    ]


def _paired_from_top(blocks: list[SignedLog], N: int, n0: int) -> SignedLog:
    """|a_N| - |a_{N-1}| - sum_{n < n0} |a_n| of ``blocks`` (a_{-1} = 0),
    less 1e-13 times the sum of the magnitudes it combines, and ZERO where
    that is not positive."""
    logs = [a.logmag for a in [blocks[N], *blocks[:n0], *blocks[N - 1 : N]]]
    logs += [v + LOG_ROUNDING for v in logs]
    # |a_N| adds; every other magnitude and each allowance subtracts
    signs = np.array([1] + [-1] * (len(logs) - 1), np.int8)
    bound = aligned_sum_arrays(signs, np.array(logs))
    return bound if bound.sign > 0 else ZERO


def divergence_lower_bound(
    amplitude: float, width: float, cfg: ApproxConfig
) -> SignedLog:
    """Lower bound on |u_k(0, t)| for Gaussian data below the width, t < t0.

    With the blocks a_n of :func:`gaussian_origin_blocks` and N = floor(k/2),
    |a_{n+1}| / |a_n| = q (n + d/2) / (n + 1), which from the first n0 with
    q (n0 + d/2) >= n0 + 1 on stays >= 1 (n0 = 0 whenever d >= 2 or q >= 2).
    Pairing the alternating blocks from the top then gives, in every
    dimension,

        |u_k(0, t)| >= |a_N| - |a_{N-1}| - sum_{n < n0} |a_n|,   a_{-1} = 0,

    less 1e-13 times the sum of the magnitudes it combines, and returned
    as ZERO where that is not positive.  This is
    :func:`divergence_lower_bound_sweep` at the one order cfg.k.
    """
    (bound,) = divergence_lower_bound_sweep(amplitude, width, cfg.dim, cfg.t, [cfg.k])
    return bound


def divergence_lower_bound_sweep(
    amplitude: float, width: float, dim: int, t: float, ks
) -> list[SignedLog]:
    """:func:`divergence_lower_bound` at each order k in ``ks``, which must
    be non-empty and ascending, from one pass of
    :func:`gaussian_origin_blocks` at the largest N.  a_n does not depend on
    N, and n0 is the first n <= N meeting its condition, so each order has
    the bits of its own call."""
    ks = _sweep_orders(ks, None)
    top = ks[-1] // 2
    blocks = gaussian_origin_blocks(amplitude, width, dim, t, top)
    if not t < width:
        raise DomainError("divergence_lower_bound applies only for t < width")
    q = width / t
    n0 = next((n for n in range(top + 1) if q * (n + 0.5 * dim) >= n + 1), top + 1)
    return [_paired_from_top(blocks, k // 2, min(n0, k // 2 + 1)) for k in ks]
