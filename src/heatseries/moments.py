"""Initial data, multi-indices, and moment tables.

A moment table holds the signed moments ``integral of x^alpha * u0`` for all
multi-indices up to a degree cap, stored as SignedLog scalars.  Every
moment, signed or absolute, is a factor its degree shell shares times a
per-component lookup (:func:`moment_factors`): Gaussian data gets closed
forms, radial data one half-line integral per total degree, and generic
one-dimensional data one line integral per degree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, ClassVar, Iterator, Union

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
        if not 0.0 < self.amplitude < math.inf:
            raise DomainError("Gaussian amplitude must be positive and finite")
        if not 0.0 < self.width < math.inf:
            raise DomainError("Gaussian width must be positive and finite")
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


def moment_factors(
    u0: InitialDatum, degrees, absolute: bool
) -> tuple[dict[int, SignedLog], list[float | None]]:
    """The moments of u0 for every alpha whose degree is in ``degrees``, as
    the factors (shared, logs) of

        moment(alpha) = shared[|alpha|] * exp(sum_i logs[alpha_i]):

    the signed moments ``integral x^alpha u0`` or, with ``absolute``, the
    norms ``|| x^alpha u0 ||_{L1}``.  shared[n] is what every multi-index of
    degree n shares; logs[c], for c up to the largest degree, is the
    per-component lookup.  A signed moment of a symmetric (Gaussian or
    Radial) datum vanishes when a component is odd: logs[c] is then None
    and an odd degree's shared factor is exact zero, with no integral.

    Gaussian data: shared C (4 t0)^{(n+d)/2}, logs ln Gamma((c+1)/2).
    Radial data: the sphere identity (Folland, "How to integrate a
    polynomial over a sphere", Amer. Math. Monthly 108, 2001)

        integral_{S^{d-1}} prod |w_i|^{a_i} dw
            = 2 prod Gamma((a_i+1)/2) / Gamma((|a|+d)/2)

    gives shared 2 / Gamma((n+d)/2) times the half-line integral of
    r^{n+d-1} profile(r), one per degree, and the same logs.  Generic1D
    data has one multi-index per degree: shared is its line integral and
    logs are 0.  An IntegrabilityError names the degree's first multi-index
    in table order.
    """
    degrees = sorted(set(degrees))
    top = max(degrees, default=0)
    d = u0.dim
    symmetric = True
    if isinstance(u0, Gaussian):
        log_amplitude, log_width = math.log(u0.amplitude), math.log(4.0 * u0.width)

        def shell(n):
            return SignedLog(1, log_amplitude + 0.5 * (n + d) * log_width)
    elif isinstance(u0, Radial):
        def shell(n):
            value = _power_integral(integrate_halfline, u0.profile, n + d - 1, absolute)
            return SignedLog(1, _LOG2 - log_gamma((n + d) / 2.0)) * SignedLog.from_float(value)
    elif isinstance(u0, Generic1D):
        symmetric = False

        def shell(n):
            return SignedLog.from_float(
                _power_integral(integrate_line, u0.func, n, absolute, breakpoints=u0.breakpoints)
            )
    else:
        raise UnsupportedVariantError(f"unknown initial-datum variant {type(u0)!r}")
    vanishing = symmetric and not absolute
    shared = {}
    for n in degrees:
        if vanishing and n % 2:
            shared[n] = ZERO  # every multi-index of odd degree has an odd component
            continue
        try:
            shared[n] = shell(n)
        except IntegrabilityError as exc:
            raise IntegrabilityError(str(exc), alpha=MultiIndex((0,) * (d - 1) + (n,))) from exc
    logs = log_gamma_halves(top) if symmetric else [0.0] * (top + 1)
    if vanishing:
        logs = [None if c % 2 else v for c, v in enumerate(logs)]
    return shared, logs


def _power_integral(integrate, f, power: int, absolute: bool, breakpoints=()) -> float:
    """``integrate`` applied to x^power f(x), or to its absolute value."""
    if absolute:
        return integrate(lambda x: abs(x**power * f(x)), breakpoints=breakpoints)
    return integrate(lambda x: x**power * f(x), breakpoints=breakpoints)


def moment(u0: InitialDatum, alpha) -> SignedLog:
    """The signed moment ``integral x^alpha u0`` of one multi-index, from
    :func:`moment_factors`."""
    return _one_index(u0, alpha, False)


def abs_moment(u0: InitialDatum, alpha) -> SignedLog:
    """``|| x^alpha u0 ||_{L1}`` of one multi-index, from
    :func:`moment_factors`."""
    return _one_index(u0, alpha, True)


def _one_index(u0: InitialDatum, alpha, absolute: bool) -> SignedLog:
    a = MultiIndex.of(alpha)
    if a.dim != u0.dim:
        raise DomainError(f"multi-index {a.components} does not match dim {u0.dim}")
    shared, logs = moment_factors(u0, [a.degree], absolute)
    lookups = [logs[c] for c in a.components]
    if any(v is None for v in lookups):
        return ZERO
    return shared[a.degree] * SignedLog(1, math.fsum(lookups))


def gaussian_moment(alpha, amplitude: float, width: float) -> SignedLog:
    """Signed moment of a Gaussian datum.

    Odd components force exact zero; otherwise
    ``C * (4 t0)^{(|alpha|+d)/2} * prod Gamma((alpha_i + 1)/2)``.
    """
    a = MultiIndex.of(alpha)
    return moment(Gaussian(amplitude, width, a.dim), a)


def gaussian_abs_moment(alpha, amplitude: float, width: float) -> SignedLog:
    """L1 norm of x^alpha times a Gaussian datum (no parity shortcut)."""
    a = MultiIndex.of(alpha)
    return abs_moment(Gaussian(amplitude, width, a.dim), a)


def radial_moment(alpha, profile: Callable[[float], float], dim: int) -> SignedLog:
    """Signed moment of the radial datum profile(|x|) in dimension dim, from
    one half-line integral and the sphere identity of :func:`moment_factors`;
    odd components give exact zero."""
    return moment(Radial(profile, dim), alpha)


def constant_C(j: int, dim: int) -> SignedLog:
    """Angular constant relating the order-j radial integral of a radial
    datum to its multi-index moments of total degree j (j even), as the
    Laguerre form of :func:`kernel_approx.eval_uk_radial_origin` uses it.

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


# ---------------------------------------------------------------------------
# moment tables


@dataclass
class MomentTable:
    """Signed moments for every multi-index with degree <= k_max.

    ``entries`` holds exactly those multi-indices, each once, in the order
    multi_indices_up_to yields them (degrees ascending, lexicographic
    within a degree); the constructor raises DomainError otherwise, so a
    consumer walks the entries and stops at the first degree above its
    truncation order.  The dict is not mutated in place after construction:
    that one check, and the array view :meth:`columns` caches, hold for it
    as long as it is the table's ``entries``.  A changed table is a new
    dict assigned to ``entries`` (or a new table).
    """

    dim: int
    k_max: int
    entries: dict[MultiIndex, SignedLog]
    source: InitialDatum | None = None
    _columns: MomentColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def columns(self) -> MomentColumns:
        """The entries as arrays, built on first use and kept for as long as
        ``entries`` is the same dict."""
        if self._columns is None or self._columns.entries is not self.entries:
            self._columns = MomentColumns(self)
        return self._columns

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


class MomentColumns:
    """The nonzero entries of a moment table as arrays, in table order, for
    evaluators that reduce every term of a degree range at once.  An entry
    whose moment is exactly zero contributes no term, and most of a
    symmetric datum's entries are such zeros, so they are left out.

    ``components`` is N x d (uint16 while k_max fits), ``signs`` int8 (+-1)
    and ``logmag`` float64.  ``counts[j]`` is the number of kept entries of
    degree j and ``ends[j]`` that of degree <= j, so degree j is the row
    range ends[j - 1]:ends[j].  ``entries`` is the dict the view was built
    from.
    """

    def __init__(self, table: MomentTable):
        self.entries = table.entries
        live = [(a, m) for a, m in self.entries.items() if m.sign]
        n, d = len(live), table.dim
        self.components = np.fromiter(
            chain.from_iterable(a.components for a, _ in live),
            dtype=np.uint16 if table.k_max <= 0xFFFF else np.uint32,
            count=n * d,
        ).reshape(n, d)
        self.signs = np.fromiter((m.sign for _, m in live), np.int8, n)
        self.logmag = np.fromiter((m.logmag for _, m in live), np.float64, n)
        degrees = self.components.sum(axis=1, dtype=np.int64)
        self.counts = np.bincount(degrees, minlength=table.k_max + 1)
        self.ends = np.cumsum(self.counts)

    def per_entry(self, per_degree) -> np.ndarray:
        """One value per degree 0..k, repeated over that degree's entries."""
        return np.repeat(np.asarray(per_degree, np.float64), self.counts[: len(per_degree)])

    @cached_property
    def ln_factorials(self) -> np.ndarray:
        """ln alpha! per entry: ``math.fsum`` of ln c! over the components.
        In dim <= 2 one correctly rounded add gives the same bits."""
        comps = self.components
        lookup = [log_factorial(c) for c in range(int(comps.max(initial=0)) + 1)]
        if comps.shape[1] <= 2:
            return np.array(lookup)[comps].sum(axis=1)
        return np.fromiter(
            (math.fsum(map(lookup.__getitem__, row)) for row in comps.tolist()),
            np.float64,
            len(comps),
        )


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
    """Moments of u0 for every |alpha| <= k_max, in table order, from one
    :func:`moment_factors` lookup (at most one quadrature per degree): the
    same bits as :func:`moment` called once per multi-index."""
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    shared, logs = moment_factors(u0, range(k_max + 1), absolute=False)
    vanishes = [v is None for v in logs]
    entries = {}
    for j in range(k_max + 1):
        sign, scale = shared[j].sign, shared[j].logmag
        for comps in compositions(j, u0.dim):
            if sign == 0 or any(map(vanishes.__getitem__, comps)):
                value = ZERO
            else:
                value = SignedLog(sign, scale + math.fsum(map(logs.__getitem__, comps)))
            entries[MultiIndex._trusted(comps, j)] = value
    return MomentTable(dim=u0.dim, k_max=k_max, entries=entries, source=u0)


def moments_at_time(table: MomentTable, t: float) -> MomentTable:
    """Moments of the heat evolution u(., t) from the initial moments.

    Under the heat flow, d/dt m_alpha = sum_i alpha_i (alpha_i - 1)
    m_{alpha - 2 e_i}, a lower-triangular linear system in total degree, so
    each evolved moment is a polynomial in t with coefficients assembled
    here by integrating the system degree by degree.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError("moments_at_time requires finite t >= 0")
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
