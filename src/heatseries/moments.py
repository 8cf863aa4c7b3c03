"""Initial data, multi-indices, and moment tables.

A moment table holds the signed moments ``integral of x^alpha * u0`` for all
multi-indices up to a degree cap, as sign and log-magnitude arrays over one
canonical index of multi-indices per dimension.  Every
moment, signed or absolute, is a factor its degree shell shares times a
per-component lookup (:func:`moment_factors`): Gaussian data gets closed
forms, radial and generic one-dimensional data one quadrature batch, one
row per degree (half-line rows for radial data, line rows for generic
data).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Union

import numpy as np

from .errors import (
    DomainError, IntegrabilityError, UnsupportedVariantError, check_integer, check_real,
)
from .quadrature import integrate_halfline_rows, integrate_line_rows, on_array
from .serial import json_cell, json_list
from .signedlog import ZERO, SignedLog
from .specfun import log_factorial, log_gamma, log_gamma_halves

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
        check_real("Gaussian amplitude", self.amplitude)
        check_real("Gaussian width", self.width)
        check_integer("dim", self.dim, 1)

    def __call__(self, r):
        return self.amplitude * np.exp(-r * r / (4.0 * self.width))


@dataclass(frozen=True)
class Radial:
    """Radially symmetric u0(x) = profile(|x|) in dimension >= 2."""

    profile: Callable[[float], float]
    dim: int

    def __post_init__(self):
        if not callable(self.profile):
            raise DomainError(f"Radial profile must be callable, got {self.profile!r}")
        check_integer("Radial dim (use Generic1D in dim 1)", self.dim, 2)


@dataclass(frozen=True)
class Generic1D:
    """One-dimensional u0 given as a callable with integrable decay.

    ``breakpoints`` lists discontinuities or kinks handed to the quadrature.
    """

    func: Callable[[float], float]
    breakpoints: tuple[float, ...] = ()
    dim: int = 1

    def __post_init__(self):
        if not callable(self.func):
            raise DomainError(f"Generic1D func must be callable, got {self.func!r}")
        try:
            points = tuple(self.breakpoints)
        except TypeError:
            raise DomainError(f"Generic1D breakpoints {self.breakpoints!r} not iterable") from None
        for point in points:
            check_real("Generic1D breakpoint", point, -math.inf)
        check_integer("Generic1D data are one-dimensional: dim", self.dim, 1, 1)


InitialDatum = Union[Gaussian, Radial, Generic1D]


# ---------------------------------------------------------------------------
# multi-indices


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Nonnegative integer exponents, one per coordinate."""

    components: tuple[int, ...]

    def __post_init__(self):
        for c in self.components:
            check_integer("multi-index component", c, 0)
        comps = tuple(map(int, self.components))
        if not comps:
            raise DomainError("multi-index needs at least one component")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def of(value) -> "MultiIndex":
        """``value`` as a multi-index: an integer (a numpy integer too) is
        one component, an iterable its components in turn."""
        if isinstance(value, MultiIndex):
            return value
        if isinstance(value, numbers.Integral):
            return MultiIndex((value,))  # whose check refuses a bool
        try:
            components = tuple(value)
        except TypeError:
            raise DomainError(f"multi-index {value!r} is neither an integer nor iterable") from None
        return MultiIndex(components)

    @property
    def degree(self) -> int:
        return sum(self.components)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` nonnegative
    integers, in ascending lexicographic order: the degree-``total`` rows of
    a canonical index (:class:`_Canon`) built for this call alone, every
    lower degree included."""
    check_integer("parts", parts, 1)
    check_integer("total", total, 0)
    canon = _Canon(total, parts)
    yield from map(tuple, canon.components[canon.ends[total] - canon.counts[total] :].tolist())


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
    r^{n+d-1} profile(r), and the same logs.  Generic1D data has one
    multi-index per degree: shared is its line integral and logs are 0.
    The integrals are one quadrature batch, one row per degree that is not
    structurally zero (:func:`_power_integrals`); an IntegrabilityError
    names the first multi-index in table order of the lowest degree whose
    row fails.
    """
    degrees = sorted(set(degrees))
    top = max(degrees, default=0)
    d = u0.dim
    symmetric = not isinstance(u0, Generic1D)
    # every multi-index of odd degree has an odd component
    vanishing = symmetric and not absolute
    live = [n for n in degrees if not (vanishing and n % 2)]
    if isinstance(u0, Gaussian):
        log_amplitude, log_width = math.log(u0.amplitude), math.log(4.0 * u0.width)
        values = [SignedLog(1, log_amplitude + 0.5 * (n + d) * log_width) for n in live]
    elif isinstance(u0, Radial):
        values = [
            SignedLog(1, _LOG2 - log_gamma((n + d) / 2.0)) * SignedLog.from_float(v)
            for n, v in zip(live, _power_integrals(u0, live, absolute))
        ]
    elif isinstance(u0, Generic1D):
        values = list(map(SignedLog.from_float, _power_integrals(u0, live, absolute)))
    else:
        raise UnsupportedVariantError(f"unknown initial-datum variant {type(u0)!r}")
    computed = dict(zip(live, values))
    shared = {n: computed.get(n, ZERO) for n in degrees}
    logs = log_gamma_halves(top) if symmetric else [0.0] * (top + 1)
    if vanishing:
        logs = [None if c % 2 else v for c, v in enumerate(logs)]
    return shared, logs


def _power_integrals(u0: Radial | Generic1D, degrees: list[int], absolute: bool) -> list[float]:
    """One quadrature batch, one row per degree n: the half-line integral
    of r^{n+d-1} profile(r) for Radial data, the line integral of x^n f(x)
    for Generic1D data, or that of its absolute value.  A failed row's
    IntegrabilityError names the first multi-index in table order of the
    lowest failed degree."""
    if not degrees:
        return []
    if isinstance(u0, Radial):
        integrate, f, offset, breakpoints = integrate_halfline_rows, u0.profile, u0.dim - 1, ()
    else:
        integrate, f, offset, breakpoints = integrate_line_rows, u0.func, 0, u0.breakpoints
    g = on_array(f)
    powers = np.array(degrees, dtype=float) + offset

    def integrand(rows, x):
        # the rows share most of their nodes: f is called once per node
        nodes, where = np.unique(x, return_inverse=True)
        fx = g(nodes)[where.reshape(x.shape)]
        values = _pow(x, powers[rows]) * fx
        return np.abs(values) if absolute else values

    try:
        return integrate(integrand, [breakpoints] * len(degrees)).tolist()
    except IntegrabilityError as exc:
        n = degrees[exc.rows[0]]
        raise IntegrabilityError(str(exc), alpha=MultiIndex((0,) * (u0.dim - 1) + (n,))) from exc


@on_array
def _pow(x: float, p: float) -> float:
    """x ** p by the C library's pow, as Python's float power rounds it,
    and +-inf past the double range, where a row of high degree must not
    stop its batch.  numpy's vector pow differs in the last bit for a few
    percent of arguments and is not odd-symmetric there: with it, odd
    moments of an even datum, which the symmetric nodes cancel exactly,
    come out nonzero."""
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.copysign(math.inf, x) if p % 2 else math.inf


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


# ---------------------------------------------------------------------------
# the canonical index


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def component_sums(lookup, components: np.ndarray) -> np.ndarray:
    """sum_i lookup[alpha_i] for every row alpha of ``components``, rounded
    as ``math.fsum`` of the row rounds it.

    In dim <= 2 one add is that rounding.  In dim >= 3 a cascade of Knuth's
    TwoSum (*TAOCP* vol. 2, 4.2.2) over the columns leaves each row as a sum
    s plus rounding errors e_i, exactly; a second cascade sums the e_i, and
    where it rounds nothing, fl(s + sum e_i) is the correctly rounded row
    sum, which is what ``fsum`` returns.  Every other row, and every row
    whose sum is zero or not finite, goes through ``math.fsum`` itself, so
    each row keeps ``fsum``'s result or error.
    """
    values = np.asarray(lookup, np.float64)[components]
    if values.shape[1] <= 2:
        return values.sum(axis=1)
    # an inf or NaN makes the row's total non-finite, so it is redone
    with np.errstate(over="ignore", invalid="ignore"):
        total, error = _two_sum(values[:, 0], values[:, 1])
        inexact = np.zeros(len(values), bool)
        for column in values.T[2:]:
            total, e = _two_sum(total, column)
            error, lost = _two_sum(error, e)
            inexact |= lost != 0.0
        total += error
    redo = np.flatnonzero(inexact | ~np.isfinite(total) | (total == 0.0))
    total[redo] = [math.fsum(row) for row in values[redo].tolist()]
    return total


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (no overflow)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


class _Canon:
    """Every multi-index of degree <= k_max in dim d, in table order: degrees
    ascending, lexicographic within a degree.  The compositions of j into p
    parts are those of j - c into p - 1 parts behind each first part c in
    turn, so each degree is stacked from the degrees below it, one part
    count at a time.  A table of a smaller degree cap reads a prefix of
    these read-only arrays; the per-row lookups and keys are extended on
    demand."""

    def __init__(self, k_max: int, dim: int):
        dtype = np.uint16 if k_max <= 0xFFFF else np.uint32
        shells = [np.full((1, 1), j, dtype) for j in range(k_max + 1)]
        for _ in range(dim - 1):
            shells = [
                np.column_stack((
                    np.repeat(np.arange(j + 1, dtype=dtype), [len(s) for s in shells[j::-1]]),
                    np.concatenate(shells[j::-1]),
                ))
                for j in range(k_max + 1)
            ]
        self.k_max = k_max
        self.components = _frozen(np.concatenate(shells))
        self.counts = _frozen(np.array([len(s) for s in shells], np.int64))
        self.ends = _frozen(np.cumsum(self.counts))
        self.degrees = _frozen(np.repeat(np.arange(k_max + 1, dtype=dtype), self.counts))
        self._ln_factorials = _frozen(np.empty(0))
        self._multi_indices: list[MultiIndex] = []

    def ln_factorials(self, n: int) -> np.ndarray:
        """ln alpha! of the first n rows, the sum of ln c! over the
        components rounded as by :func:`component_sums`."""
        have = len(self._ln_factorials)
        if have < n:
            lookup = [log_factorial(c) for c in range(self.k_max + 1)]
            more = component_sums(lookup, self.components[have:n])
            self._ln_factorials = _frozen(np.concatenate((self._ln_factorials, more)))
        return self._ln_factorials[:n]

    def multi_indices(self, n: int) -> list[MultiIndex]:
        """The first n rows as MultiIndex keys, shared by every table's
        ``entries``.  The rows are valid multi-indices, so each key is set
        up without the constructor's checks."""
        keys = self._multi_indices
        for components in map(tuple, self.components[len(keys) : n].tolist()):
            key = object.__new__(MultiIndex)
            object.__setattr__(key, "components", components)
            keys.append(key)
        return keys[:n]


_CANONS: dict[int, _Canon] = {}  # dim -> the largest index built so far


def _canon(k_max: int, dim: int) -> _Canon:
    canon = _CANONS.get(dim)
    if canon is None or canon.k_max < k_max:
        canon = _CANONS[dim] = _Canon(k_max, dim)
    return canon


def _ranks(components: np.ndarray) -> np.ndarray:
    """The table row of each multi-index: the multi-indices of lower degree,
    comb(n - 1 + d, d), plus, at each component but the last, those of the
    same degree that take a smaller value there with the same components
    before it, comb(r + m, m) - comb(r - a + m, m) for remaining total r,
    component a and m parts after it (the hockey-stick sum of the counts
    comb(r - c + m - 1, m - 1) over c < a)."""
    components = components.astype(np.int64)
    d = components.shape[1]
    rest = components.sum(axis=1)
    rank = _comb(rest - 1 + d, d)
    for i in range(d - 1):
        m = d - 1 - i
        rank += _comb(rest + m, m) - _comb(rest - components[:, i] + m, m)
        rest = rest - components[:, i]
    return rank


def _comb(n: np.ndarray, m: int) -> np.ndarray:
    """comb(n, m) elementwise for n >= 0 (0 where n < m), exactly: the
    running product is comb(n, i + 1) after step i."""
    out = np.ones_like(n)
    for i in range(m):
        out = out * (n - i) // (i + 1)
    return out


# ---------------------------------------------------------------------------
# moment tables


#: the JSON wire format's columns, each a table attribute of that name
_WIRE_COLUMNS = ("signs", "logmag")

#: the largest table dim: JSON text bounds a table's rows but spells out no
#: multi-index, so uncapped, a 50-byte header of dim 10**8 would build a
#: 200 MB canonical index (a dim-32 table fits in memory only to degree ~6)
MAX_DIM = 32


class MomentTable:
    """Signed moments for every multi-index with degree <= k_max.

    The table is columns over every such multi-index, each once, in table
    order (degrees ascending, lexicographic within a degree), zeros
    included:

    - ``components``: N x d (uint16 while k_max fits), the index every
      table of this dim and degree cap shares;
    - ``signs``: int8, -1, 0 or 1;
    - ``logmag``: float64, the log of the magnitude, 0.0 where the sign is 0;
    - ``counts[j]``, the number of multi-indices of degree j, and
      ``ends[j]``, that of degree <= j: degree j is rows ends[j-1]:ends[j].

    Every column is a read-only array, and every package route reads them.
    :meth:`from_arrays` is the one constructor.  ``entries`` is the same
    table as a dict of MultiIndex -> SignedLog for callers outside the
    package, built on first read.  Assigning a dict to ``entries`` checks
    it as :meth:`from_arrays` checks its columns, and its keys against the
    multi-indices above (exactly those, in table order, else DomainError),
    and replaces the columns from it.  The columns are never rebuilt from
    that dict later, so a changed table is a new dict assigned to
    ``entries``, not one changed in place.
    """

    #: JSON wire format: these header fields (JSON key, attribute, type),
    #: then the _WIRE_COLUMNS, each one array in table order
    HEADER: ClassVar[tuple] = (("dim", "dim", int), ("kmax", "k_max", int))
    #: CSV format: one row of these per multi-index, in table order
    COLUMNS: ClassVar[tuple] = ("alpha", "sign", "logmag")

    @classmethod
    def from_arrays(cls, signs, logmag, *, dim: int, k_max: int, source=None, **header):
        """The table of the sign and log-magnitude columns, in table order,
        checked as a whole; ``header`` sets the further fields of a
        subclass's HEADER, and any other keyword raises DomainError."""
        unknown = sorted(set(header) - {attr for _, attr, _ in cls.HEADER})
        if unknown:
            raise DomainError(f"{cls.__name__} has no header field {', '.join(unknown)}")
        table = cls.__new__(cls)
        table.dim, table.k_max, table.source = dim, k_max, source
        table.__dict__.update(header)
        table._store(signs, logmag)
        return table

    def _check_header(self) -> None:
        check_integer("table dim", self.dim, 1, MAX_DIM)
        check_integer("table k_max", self.k_max, 0)

    def _store(self, signs, logmag, keys=None) -> None:
        """Decide the table, in this order: the header, the column types, the
        row count (before an index of the claimed size is built), the keys of
        an assigned ``entries`` dict, the values; then keep the columns."""
        self._check_header()
        signs, logmag = np.asarray(signs), np.asarray(logmag)
        if signs.dtype.kind not in "iu" or logmag.dtype.kind not in "iuf":
            raise DomainError(
                f"table signs must be integers and logmag real numbers, got arrays of "
                f"{signs.dtype} and {logmag.dtype}"
            )
        # at most MAX_DIM multiplications, whatever k_max is
        n = math.comb(int(self.k_max) + self.dim, self.dim)
        if signs.shape != (n,) or logmag.shape != (n,):
            raise DomainError(
                f"table of dim {self.dim}, k_max {self.k_max} has {n} multi-indices, "
                f"not {signs.size} signs and {logmag.size} logmag"
            )
        canon = _canon(self.k_max, self.dim)
        if keys is not None:
            try:
                comps = np.array([a.components for a in keys], np.int64)
            except (AttributeError, TypeError, ValueError, OverflowError):
                comps = None
            index = canon.components[:n]
            if comps is None or comps.shape != index.shape or (comps != index).any():
                raise DomainError(
                    f"a table of dim {self.dim} holds every degree <= {self.k_max} "
                    "once, degrees ascending, lexicographic within a degree"
                )
        if not np.isin(signs, (-1, 0, 1)).all():
            raise DomainError("table sign outside -1, 0 and 1")
        logmag = np.asarray(logmag, np.float64)
        # every row: a zero row's NaN or inf is refused, not zeroed below
        if not np.isfinite(logmag).all():
            raise DomainError("table logmag is not finite")
        self._canon = canon
        self.components = canon.components[:n]
        self.counts = canon.counts[: self.k_max + 1]
        self.ends = canon.ends[: self.k_max + 1]
        self.signs = _frozen(signs.astype(np.int8))
        self.logmag = _frozen(np.where(signs != 0, logmag, 0.0))
        self._entries = None

    @property
    def entries(self) -> dict[MultiIndex, SignedLog]:
        """The table as a dict in table order: the last dict assigned, or
        one built from the columns."""
        if self._entries is None:
            values = [ZERO] * len(self.signs)
            live = np.flatnonzero(self.signs)
            signs, logmag = self.signs[live].tolist(), self.logmag[live].tolist()
            for row, value in zip(live.tolist(), map(SignedLog, signs, logmag)):
                values[row] = value
            self._entries = dict(zip(self._canon.multi_indices(len(values)), values))
        return self._entries

    @entries.setter
    def entries(self, entries: dict[MultiIndex, SignedLog]) -> None:
        values = entries.values()
        self._store([m.sign for m in values], [m.logmag for m in values], keys=entries)
        self._entries = entries

    @property
    def degrees(self) -> np.ndarray:
        """|alpha| of every row."""
        return self._canon.degrees[: len(self.signs)]

    @property
    def ln_factorials(self) -> np.ndarray:
        """ln alpha! of every row, each rounded as ``math.fsum`` of its
        components' ln c! rounds it."""
        return self._canon.ln_factorials(len(self.signs))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, k_max={self.k_max}, source={self.source!r})"

    def moment(self, alpha) -> SignedLog:
        a = MultiIndex.of(alpha)
        if a.dim != self.dim or a.degree > self.k_max:
            raise DomainError(
                f"multi-index {a.components} outside table "
                f"(dim {self.dim}, k_max {self.k_max})"
            )
        row = int(_ranks(np.array([a.components]))[0])
        sign = int(self.signs[row])
        return SignedLog(sign, float(self.logmag[row])) if sign else ZERO

    def indices(self) -> Iterator[MultiIndex]:
        """Degrees ascending, lexicographic within a degree."""
        return iter(self._canon.multi_indices(len(self.signs)))

    def rows(self) -> list[tuple]:
        """One COLUMNS row per entry, in table order; a zero writes logmag 0."""
        return list(
            zip(map(tuple, self.components.tolist()), self.signs.tolist(), self.logmag.tolist())
        )

    def to_json(self) -> str:
        fields = [(key, json_cell(getattr(self, a))) for key, a, _ in self.HEADER]
        fields += [(c, json_list(getattr(self, c).tolist())) for c in _WIRE_COLUMNS]
        return "{%s}" % ",".join('"%s":%s' % field for field in fields)

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        """Inverse of to_json; a malformed or partial table raises
        DomainError."""
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"table text is not JSON: {exc}") from None
        if not isinstance(raw, dict) or not all(type(raw.get(c)) is list for c in _WIRE_COLUMNS):
            keys = [key for key, _, _ in cls.HEADER] + list(_WIRE_COLUMNS)
            raise DomainError(f"table JSON needs an object with keys {', '.join(map(repr, keys))}")
        header = {attr: _header_field(raw, key, kind) for key, attr, kind in cls.HEADER}
        signs, logmag = _read_columns(*map(raw.get, _WIRE_COLUMNS))
        return cls.from_arrays(signs, logmag, **header)


def _header_field(raw: dict, key: str, kind: type):
    value = raw.get(key)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise DomainError(f"table JSON header {key!r} is not a valid {kind.__name__}")
    return value


def _read_columns(signs: list, logmag: list) -> tuple[np.ndarray, np.ndarray]:
    """The sign and log-magnitude columns as arrays, after the JSON type
    rule, which must see the Python values (numpy reads a true among ints
    as 1): every sign an int, not a bool or a float, and every logmag an
    int or a float.  :meth:`MomentTable.from_arrays` decides the rest."""
    if not set(map(type, signs)) <= {int}:
        sign = next(s for s in signs if type(s) is not int)
        raise DomainError(f"table sign {sign!r} is not an integer")
    if not set(map(type, logmag)) <= {int, float}:
        value = next(v for v in logmag if type(v) not in (int, float))
        raise DomainError(f"table logmag {value!r} is not a number")
    try:
        # int64, not int8: a sign past int8 must reach the range check, not wrap
        return np.array(signs, np.int64), np.array(logmag, np.float64)
    except OverflowError:
        raise DomainError("table holds a number beyond the range of its column") from None


def build_moment_table(u0: InitialDatum, k_max: int) -> MomentTable:
    """Moments of u0 for every |alpha| <= k_max, in table order, from one
    :func:`moment_factors` lookup (one quadrature batch, one row per
    degree): the same bits as :func:`moment` called once per multi-index,
    the shell's log plus the components' logs summed as ``math.fsum`` sums
    them."""
    check_integer("k_max", k_max, 0)
    shared, logs = moment_factors(u0, range(k_max + 1), absolute=False)
    canon = _canon(k_max, u0.dim)
    n = int(canon.ends[k_max])
    comps, degrees = canon.components[:n], canon.degrees[:n]
    signs = np.array([shared[j].sign for j in range(k_max + 1)], np.int8)[degrees]
    vanishes = np.array([v is None for v in logs])
    if vanishes.any():
        signs[vanishes[comps].any(axis=1)] = 0
    live = np.flatnonzero(signs)
    scale = np.array([shared[j].logmag for j in range(k_max + 1)])
    lookup = [0.0 if v is None else v for v in logs]
    logmag = np.zeros(n)
    logmag[live] = scale[degrees[live]] + component_sums(lookup, comps[live])
    return MomentTable.from_arrays(signs, logmag, dim=u0.dim, k_max=k_max, source=u0)


def moments_at_time(table: MomentTable, t: float) -> MomentTable:
    """Moments of the heat evolution u(., t) from the initial moments.

    Along each axis u(., t) is u0 spread by y + sqrt(2t) Z with Z standard
    normal, and E[(y + sqrt(2t) Z)^a] = sum_j a! t^j / ((a - 2j)! j!) y^(a-2j),
    so axis i maps the moments as

        m_alpha <- sum_{2j <= alpha_i} m_{alpha - 2j e_i} alpha_i! t^j / ((alpha_i - 2j)! j!),

    and the axes compose to the semigroup's closed form.  Each axis is one
    pass over the table's rows in log space (:func:`_evolve_axis`).  The
    sums are compensated but not correctly rounded, so a logmag can differ
    from an exactly rounded evaluation in its last bits; t == 0 returns the
    table's own bits.
    """
    check_real("moments_at_time time t", t, zero=True)
    signs, logmag = table.signs, table.logmag
    if t > 0.0:
        ln_factorial = np.array([log_factorial(c) for c in range(table.k_max + 1)])
        for axis in range(table.dim):
            signs, logmag = _evolve_axis(
                table.components, axis, signs, logmag, ln_factorial, math.log(t)
            )
    return MomentTable.from_arrays(signs, logmag, dim=table.dim, k_max=table.k_max)


def _evolve_axis(components, axis, signs, logmag, ln_factorial, log_t):
    """One axis of :func:`moments_at_time` over every row at once.

    The sources alpha - 2j e_i of shift j are reached through one map of
    row shifts (the row of alpha - 2 e_i), applied j times, so memory stays
    a few arrays of one entry per row; the shifts are walked twice, once
    for each row's largest term log and once to add the terms aligned to it
    with Neumaier's compensated sum.
    """
    a = components[:, axis].astype(np.int64)
    movable = np.flatnonzero(a >= 2)
    down = np.full(len(a), -1)
    shifted = components[movable].astype(np.int64)
    shifted[:, axis] -= 2
    down[movable] = _ranks(shifted)

    def shifts():
        """(rows, their live sources, each term's log) for j = 1, 2, .."""
        rows, src, j = movable, down[movable], 1
        while len(rows):
            live = np.flatnonzero(signs[src])
            r, s = rows[live], src[live]
            coeff = ln_factorial[a[r]] - ln_factorial[a[r] - 2 * j] - ln_factorial[j] + j * log_t
            yield r, s, logmag[s] + coeff
            j += 1
            keep = a[rows] >= 2 * j
            rows, src = rows[keep], down[src[keep]]

    peak = np.where(signs != 0, logmag, -np.inf)
    for r, _, term in shifts():
        peak[r] = np.maximum(peak[r], term)
    total = np.zeros(len(a))
    live = np.flatnonzero(signs)
    total[live] = signs[live] * np.exp(logmag[live] - peak[live])  # each row's own moment
    carry = np.zeros(len(a))
    for r, s, term in shifts():
        x = signs[s] * np.exp(term - peak[r])
        before = total[r]
        after = before + x
        carry[r] += np.where(np.abs(before) >= np.abs(x), (before - after) + x, (x - after) + before)
        total[r] = after
    total += carry
    nonzero = total != 0.0
    out = np.zeros(len(a))
    out[nonzero] = peak[nonzero] + np.log(np.abs(total[nonzero]))
    return np.sign(total).astype(np.int8), out
