"""Initial data, multi-indices, and moment tables.

A moment table holds the signed moments ``integral of x^alpha * u0`` for all
multi-indices up to a degree cap, stored as SignedLog scalars.  Gaussian
data gets closed forms, radial data reduces to one half-line integral per
total degree, and generic one-dimensional data falls back to line
quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Sequence, Union

import numpy as np

from .errors import DomainError, IntegrabilityError, UnsupportedVariantError
from .quadrature import integrate_halfline, integrate_line
from .serial import json_array, json_cell
from .signedlog import ZERO, SignedLog, aligned_sum
from .specfun import log_factorial, log_gamma, log_gamma_halves

_LOG_2PI = math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class Gaussian:
    """u0(x) = amplitude * exp(-|x|^2 / (4 * width)).

    Called on the radius r = |x|, a float or an array.
    """

    array_native = True

    amplitude: float
    width: float
    dim: int = 1

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise DomainError("Gaussian amplitude must be positive")
        if self.width <= 0.0:
            raise DomainError("Gaussian width must be positive")
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")

    def __call__(self, r):
        return self.amplitude * np.exp(-r * r / (4.0 * self.width))


@dataclass(frozen=True)
class Radial:
    """Radially symmetric u0(x) = profile(|x|) in dimension >= 2."""

    profile: Callable[[float], float]
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError("Radial data requires dim >= 2; use Generic1D")


@dataclass(frozen=True)
class Generic1D:
    """One-dimensional u0 given as a callable with integrable decay.

    ``breakpoints`` lists discontinuities or kinks handed to the quadrature.
    """

    func: Callable[[float], float]
    breakpoints: tuple[float, ...] = ()
    dim: int = 1


InitialDatum = Union[Gaussian, Radial, Generic1D]


# ---------------------------------------------------------------------------
# multi-indices


@dataclass(frozen=True)
class MultiIndex:
    """Nonnegative integer exponents, one per coordinate."""

    components: tuple[int, ...]
    degree: int = field(init=False, compare=False)

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        if not comps:
            raise DomainError("multi-index needs at least one component")
        if any(c < 0 for c in comps):
            raise DomainError(f"negative multi-index component in {comps}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "degree", sum(comps))

    @classmethod
    def _trusted(cls, comps: tuple[int, ...], degree: int) -> "MultiIndex":
        """A multi-index from components a builder generated itself, without
        re-validating each one; MomentTable checks the assembled set."""
        a = object.__new__(cls)
        object.__setattr__(a, "components", comps)
        object.__setattr__(a, "degree", degree)
        return a

    @staticmethod
    def of(value, dim: int | None = None) -> "MultiIndex":
        if isinstance(value, MultiIndex):
            return value
        if isinstance(value, int):
            return MultiIndex((value,) * 1 if dim in (None, 1) else _axis(value, dim))
        return MultiIndex(tuple(value))

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def all_even(self) -> bool:
        return all(c % 2 == 0 for c in self.components)

    def log_factorial(self) -> float:
        """ln(alpha!) = sum of ln(component!)."""
        return math.fsum(log_factorial(c) for c in self.components)

    def __iter__(self):
        return iter(self.components)


def _axis(n: int, dim: int) -> tuple[int, ...]:
    return (n,) + (0,) * (dim - 1)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` nonnegative
    integers, in ascending lexicographic order: each first part in turn,
    followed by every composition of the rest into one part fewer.  The
    compositions of each j <= total into fewer parts are built as lists,
    one part count at a time (no recursion)."""
    if parts < 1:
        raise DomainError("parts must be >= 1")
    if total < 0:
        raise DomainError("total must be >= 0")
    if parts == 1:
        yield (total,)
        return
    rests = [[(j,)] for j in range(total + 1)]  # j as one part
    for _ in range(parts - 2):
        rests = [
            [(a,) + rest for a in range(j + 1) for rest in rests[j - a]]
            for j in range(total + 1)
        ]
    for first in range(total + 1):
        for rest in rests[total - first]:
            yield (first,) + rest


def multi_indices_of_degree(degree: int, dim: int) -> Iterator[MultiIndex]:
    for comp in compositions(degree, dim):
        yield MultiIndex(comp)


def multi_indices_up_to(k_max: int, dim: int) -> Iterator[MultiIndex]:
    """Degrees ascending, lexicographic within a degree."""
    for j in range(k_max + 1):
        yield from multi_indices_of_degree(j, dim)


# ---------------------------------------------------------------------------
# moment operations


def gaussian_moment(alpha, amplitude: float, width: float) -> SignedLog:
    """Signed moment of a Gaussian datum.

    Odd components force exact zero; otherwise
    ``C * (4 t0)^{(|alpha|+d)/2} * prod Gamma((alpha_i + 1)/2)``.
    """
    a = MultiIndex.of(alpha)
    if amplitude <= 0.0 or width <= 0.0:
        raise DomainError("gaussian_moment requires positive amplitude and width")
    if not a.all_even:
        return ZERO
    return gaussian_abs_moment(a, amplitude, width)


def gaussian_abs_moment(alpha, amplitude: float, width: float) -> SignedLog:
    """L1 norm of x^alpha times a Gaussian datum (no parity shortcut)."""
    a = MultiIndex.of(alpha)
    if amplitude <= 0.0 or width <= 0.0:
        raise DomainError("gaussian_abs_moment requires positive amplitude and width")
    return _abs_moment(Gaussian(amplitude, width, a.dim), a)


def abs_moment_factors(
    u0: InitialDatum, degrees
) -> tuple[dict[int, SignedLog], list[float]]:
    """``|| x^alpha u0 ||_{L1}`` for every alpha whose degree is in
    ``degrees``, as the factors (shared, logs) of

        || x^alpha u0 ||_1 = shared[|alpha|] * exp(sum_i logs[alpha_i]).

    shared[n] is what every multi-index of degree n shares; logs[c], for c
    up to the largest degree, is the per-component lookup.  Gaussian data:
    shared C (4 t0)^{(n+d)/2}, logs ln Gamma((c+1)/2).  Radial data: the
    surface-measure identity

        integral_{S^{d-1}} prod |w_i|^{a_i} dw
            = 2 prod Gamma((a_i+1)/2) / Gamma((|a|+d)/2)

    gives shared 2 / Gamma((n+d)/2) times one half-line integral per
    degree (:func:`radial_abs_integral`), and the same logs.  Generic1D
    data has one multi-index per degree: shared is its line integral and
    logs are 0.
    """
    degrees = sorted(set(degrees))
    top = max(degrees, default=0)
    d = u0.dim
    if isinstance(u0, Gaussian):
        log_amplitude, log_width = math.log(u0.amplitude), math.log(4.0 * u0.width)
        shared = {n: SignedLog(1, log_amplitude + 0.5 * (n + d) * log_width) for n in degrees}
        return shared, log_gamma_halves(top)
    if isinstance(u0, Radial):
        shared = {
            n: SignedLog(1, _LOG2 - log_gamma((n + d) / 2.0))
            * SignedLog.from_float(radial_abs_integral(u0.profile, _shell_first(n, d)))
            for n in degrees
        }
        return shared, log_gamma_halves(top)
    if isinstance(u0, Generic1D):
        shared = {
            n: generic_abs_moment_1d(_shell_first(n, d), u0.func, u0.breakpoints)
            for n in degrees
        }
        return shared, [0.0] * (top + 1)
    raise UnsupportedVariantError(f"unknown initial-datum variant {type(u0)!r}")


def _shell_first(n: int, d: int) -> MultiIndex:
    """The first multi-index of degree n in dimension d, in table order."""
    return MultiIndex((0,) * (d - 1) + (n,))


def _abs_moment(u0: InitialDatum, a: MultiIndex) -> SignedLog:
    shared, logs = abs_moment_factors(u0, [a.degree])
    return shared[a.degree] * SignedLog(1, math.fsum(map(logs.__getitem__, a.components)))


def constant_C(j: int, dim: int) -> SignedLog:
    """Angular constant relating the order-j radial integral of a radial
    datum to its multi-index moments of total degree j (j even).

    Even dim:  (2 pi)^{d/2} / (2^{(j+d-2)/2} Gamma((j+d)/2))
    Odd dim:   (2 pi)^{(d-1)/2} 2^{(j+d+1)/2} Gamma((j+d+1)/2) / Gamma(j+d)
    """
    if j < 0 or j % 2 != 0:
        raise DomainError(f"constant_C needs even j >= 0, got {j}")
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    if dim % 2 == 0:
        logmag = (
            0.5 * dim * _LOG_2PI
            - 0.5 * (j + dim - 2) * _LOG2
            - log_gamma((j + dim) / 2.0)
        )
    else:
        logmag = (
            0.5 * (dim - 1) * _LOG_2PI
            + 0.5 * (j + dim + 1) * _LOG2
            + log_gamma((j + dim + 1) / 2.0)
            - log_gamma(float(j + dim))
        )
    return SignedLog(1, logmag)


def radial_moment(
    alpha,
    profile: Callable[[float], float],
    dim: int,
    _radial_integral: float | None = None,
) -> SignedLog:
    """Moment of a radial datum via one half-line integral.

    For even alpha,

        integral x^alpha u0 = alpha! * C(|alpha|, d)
            / (2^{|alpha|/2} prod (alpha_i/2)!)
            * integral_0^inf r^{|alpha|+d-1} profile(r) dr

    and odd components give exact zero.  ``_radial_integral`` lets a table
    builder reuse the degree-j radial integral across multi-indices.
    """
    a = MultiIndex.of(alpha)
    if a.dim != dim:
        raise DomainError("multi-index dimension does not match dim")
    if not a.all_even:
        return ZERO
    j = a.degree
    if _radial_integral is None:
        _radial_integral = _radial_power_integral(profile, j + dim - 1, a)
    combinatorial = (
        a.log_factorial()
        - 0.5 * j * _LOG2
        - math.fsum(log_factorial(c // 2) for c in a.components)
    )
    return (
        SignedLog(1, combinatorial)
        * constant_C(j, dim)
        * SignedLog.from_float(_radial_integral)
    )


def radial_abs_moment(
    alpha,
    profile: Callable[[float], float],
    dim: int,
) -> SignedLog:
    """L1 norm of x^alpha times |profile(|x|)| for any parity of alpha, from
    :func:`abs_moment_factors`."""
    a = MultiIndex.of(alpha)
    if a.dim != dim:
        raise DomainError("multi-index dimension does not match dim")
    return _abs_moment(Radial(profile, dim), a)


def radial_abs_integral(profile: Callable[[float], float], alpha) -> float:
    """integral_0^inf r^{|alpha|+d-1} |profile(r)| dr, the half-line factor
    that every multi-index of alpha's degree shares in
    :func:`abs_moment_factors`; an IntegrabilityError names alpha."""
    a = MultiIndex.of(alpha)
    return _radial_power_integral(lambda r: abs(profile(r)), a.degree + a.dim - 1, a)


def _radial_power_integral(profile, power: int, alpha: MultiIndex) -> float:
    try:
        return integrate_halfline(lambda r: r**power * profile(r))
    except IntegrabilityError as exc:
        raise IntegrabilityError(str(exc), alpha=alpha) from exc


def generic_moment_1d(
    alpha,
    func: Callable[[float], float],
    breakpoints: Sequence[float] = (),
) -> SignedLog:
    """Signed moment of a one-dimensional datum by line quadrature."""
    a = MultiIndex.of(alpha)
    if a.dim != 1:
        raise DomainError("generic_moment_1d is one-dimensional")
    n = a.degree
    try:
        value = integrate_line(lambda x: x**n * func(x), breakpoints=breakpoints)
    except IntegrabilityError as exc:
        raise IntegrabilityError(str(exc), alpha=a) from exc
    return SignedLog.from_float(value)


def generic_abs_moment_1d(
    alpha,
    func: Callable[[float], float],
    breakpoints: Sequence[float] = (),
) -> SignedLog:
    a = MultiIndex.of(alpha)
    if a.dim != 1:
        raise DomainError("generic_abs_moment_1d is one-dimensional")
    n = a.degree
    try:
        value = integrate_line(
            lambda x: abs(x**n * func(x)), breakpoints=breakpoints
        )
    except IntegrabilityError as exc:
        raise IntegrabilityError(str(exc), alpha=a) from exc
    return SignedLog.from_float(value)


def abs_moment(u0: InitialDatum, alpha) -> SignedLog:
    """Dispatch ``|| x^alpha u0 ||_{L1}`` on the datum variant."""
    a = MultiIndex.of(alpha)
    if isinstance(u0, Gaussian):
        return gaussian_abs_moment(a, u0.amplitude, u0.width)
    if isinstance(u0, Radial):
        return radial_abs_moment(a, u0.profile, u0.dim)
    if isinstance(u0, Generic1D):
        return generic_abs_moment_1d(a, u0.func, u0.breakpoints)
    raise UnsupportedVariantError(f"unknown initial-datum variant {type(u0)!r}")


# ---------------------------------------------------------------------------
# moment tables


@dataclass
class MomentTable:
    """Signed moments for every multi-index with degree <= k_max.

    ``entries`` holds exactly those multi-indices, each once, in the order
    multi_indices_up_to yields them (degrees ascending, lexicographic
    within a degree); the constructor raises DomainError otherwise, so a
    consumer walks the entries and stops at the first degree above its
    truncation order.
    """

    dim: int
    k_max: int
    entries: dict[MultiIndex, SignedLog]
    source: InitialDatum | None = None

    #: wire format: header fields (JSON key, attribute, type), then entry rows
    HEADER: ClassVar[tuple] = (("dim", "dim", int), ("kmax", "k_max", int))
    COLUMNS: ClassVar[tuple] = ("alpha", "sign", "logmag")

    def __post_init__(self):
        if self.dim < 1 or self.k_max < 0:
            raise DomainError(f"table dim {self.dim} or k_max {self.k_max} below range")
        previous = (-1,)
        for a in self.entries:
            here = (a.degree, a.components)
            if not previous < here or a.degree > self.k_max or a.dim != self.dim:
                raise DomainError(
                    f"multi-index {a.components} out of place: a table of dim "
                    f"{self.dim} holds every degree <= {self.k_max} once, degrees "
                    "ascending, lexicographic within a degree"
                )
            previous = here
        n = len(self.entries)
        # a full table has more than min(k_max, dim) entries; testing that
        # first keeps comb() cheap for a header with huge dim and kmax
        if n <= min(self.k_max, self.dim) or n != math.comb(
            self.k_max + self.dim, self.dim
        ):
            raise DomainError(
                f"table of dim {self.dim}, k_max {self.k_max} misses multi-indices "
                f"(it holds {n})"
            )

    def moment(self, alpha) -> SignedLog:
        a = MultiIndex.of(alpha)
        try:
            return self.entries[a]
        except KeyError:
            raise DomainError(
                f"multi-index {a.components} outside table "
                f"(dim {self.dim}, k_max {self.k_max})"
            ) from None

    def indices(self) -> Iterator[MultiIndex]:
        """Degrees ascending, lexicographic within a degree."""
        return iter(self.entries)

    def rows(self) -> list[tuple]:
        """One COLUMNS row per entry, in table order; a zero writes logmag 0."""
        return [
            (a.components, m.sign, m.logmag if m.sign != 0 else 0.0)
            for a, m in self.entries.items()
        ]

    def to_json(self) -> str:
        header = "".join(
            '"%s":%s,' % (key, json_cell(getattr(self, a))) for key, a, _ in self.HEADER
        )
        return '{%s"entries":%s}' % (header, json_array(self.COLUMNS, self.rows()))

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        """Inverse of to_json; a malformed, partial or out-of-order table
        raises DomainError."""
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"table text is not JSON: {exc}") from None
        if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
            raise DomainError('table JSON needs an object with an "entries" array')
        header = {attr: _header_field(raw, key, kind) for key, attr, kind in cls.HEADER}
        rows = raw["entries"]
        entries = dict(map(_entry, rows))
        if len(entries) != len(rows):
            raise DomainError("table JSON repeats a multi-index")
        return cls(**header, entries=entries)


def _header_field(raw: dict, key: str, kind: type):
    value = raw.get(key)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise DomainError(f"table JSON header {key!r} is not a valid {kind.__name__}")
    return value


def _entry(row) -> tuple[MultiIndex, SignedLog]:
    """One wire row as (multi-index, value)."""
    try:
        alpha, sign, logmag = row["alpha"], row["sign"], row["logmag"]
    except (KeyError, TypeError):
        raise DomainError(f"table row {row!r} needs alpha, sign and logmag") from None
    if not (isinstance(alpha, list) and all(type(c) is int for c in alpha)):
        raise DomainError(f"table row alpha {alpha!r} is not a list of integers")
    if type(sign) is not int or sign not in (-1, 0, 1):
        raise DomainError(f"table row sign {sign!r} is not -1, 0 or 1")
    if type(logmag) not in (int, float) or (sign != 0 and not math.isfinite(logmag)):
        raise DomainError(f"table row logmag {logmag!r} is not a finite number")
    return MultiIndex(tuple(alpha)), ZERO if sign == 0 else SignedLog(sign, float(logmag))


def build_moment_table(u0: InitialDatum, k_max: int) -> MomentTable:
    """Moments of u0 for every |alpha| <= k_max.

    Gaussian data is filled from one :func:`abs_moment_factors` lookup.  Radial
    data computes one half-line integral per even total degree and reuses
    it across that degree's multi-indices.
    """
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    d = u0.dim
    if isinstance(u0, Gaussian):
        return MomentTable(dim=d, k_max=k_max, entries=_gaussian_entries(u0, k_max), source=u0)
    if isinstance(u0, Radial):
        radial: dict[int, float] = {}  # degree -> its shared half-line integral

        def moment(a):
            if a.all_even and a.degree not in radial:
                radial[a.degree] = _radial_power_integral(u0.profile, a.degree + d - 1, a)
            return radial_moment(a, u0.profile, d, _radial_integral=radial.get(a.degree))
    elif isinstance(u0, Generic1D):
        def moment(a):
            return generic_moment_1d(a, u0.func, u0.breakpoints)
    else:
        raise UnsupportedVariantError(f"unknown initial-datum variant {type(u0)!r}")
    entries = {a: moment(a) for a in multi_indices_up_to(k_max, d)}
    return MomentTable(dim=d, k_max=k_max, entries=entries, source=u0)


def _gaussian_entries(u0: Gaussian, k_max: int) -> dict[MultiIndex, SignedLog]:
    """gaussian_moment of every multi-index up to k_max, in table order,
    from one :func:`abs_moment_factors` lookup: the same bits as calling it
    once per multi-index."""
    shared, logs = abs_moment_factors(u0, range(k_max + 1))
    odd = [c % 2 for c in range(k_max + 1)]
    entries = {}
    for j in range(k_max + 1):
        scale = shared[j].logmag
        for comps in compositions(j, u0.dim):
            if any(map(odd.__getitem__, comps)):
                value = ZERO
            else:
                value = SignedLog(1, scale + math.fsum(map(logs.__getitem__, comps)))
            entries[MultiIndex._trusted(comps, j)] = value
    return entries


def moments_at_time(table: MomentTable, t: float) -> MomentTable:
    """Moments of the heat evolution u(., t) from the initial moments.

    Under the heat flow, d/dt m_alpha = sum_i alpha_i (alpha_i - 1)
    m_{alpha - 2 e_i}, a lower-triangular linear system in total degree, so
    each evolved moment is a polynomial in t with coefficients assembled
    here by integrating the system degree by degree.
    """
    if t < 0.0:
        raise DomainError("moments_at_time requires t >= 0")
    polys: dict[tuple[int, ...], list[SignedLog]] = {}
    for a, value in table.entries.items():
        comps = a.components
        poly = [value]
        # derivative contribution from each axis, two degrees down
        sources = [
            (float(c * (c - 1)), polys[comps[:i] + (c - 2,) + comps[i + 1 :]])
            for i, c in enumerate(comps)
            if c >= 2
        ]
        if sources:
            depth = max(len(p) for _, p in sources)
            for m in range(depth):
                terms = [
                    SignedLog.from_float(w) * p[m]
                    for w, p in sources
                    if m < len(p)
                ]
                # integrate t^m -> t^{m+1} / (m+1)
                coeff = aligned_sum(terms) * SignedLog.from_float(1.0 / (m + 1.0))
                poly.append(coeff)
        polys[comps] = poly
    t_log = SignedLog.from_float(t)
    entries = {}
    for a, poly in zip(table.entries, polys.values()):
        if t == 0.0:
            entries[a] = poly[0]
        else:
            entries[a] = aligned_sum(c * t_log**m for m, c in enumerate(poly))
    return MomentTable(dim=table.dim, k_max=table.k_max, entries=entries, source=None)
