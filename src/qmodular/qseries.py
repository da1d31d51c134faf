"""Exact truncated power series in q.

A :class:`QSeries` is the series

    q^offset * (c[0] + c[1] q + c[2] q^2 + ... + c[order-1] q^(order-1))

with exact rational coefficients ``c[j]`` and a rational exponent
``offset`` whose denominator divides 24, so eta-quotient exponents stay
exactly representable.  Exponents advance in integer steps from the
offset; everything below the offset is zero by definition (the offset is
the exponent of the leading monomial), and everything at or beyond
``offset + order`` is *unknown*, not zero.

The offset and each coefficient are stored in one normal form, chosen
only by :func:`rational` in the constructor: an ``int`` when integral, a
:class:`~fractions.Fraction` otherwise, so the integral series that make
up most of the library stay on plain ints.  Ints compare and hash like
Fractions and carry ``.numerator`` and ``.denominator``, but ``/`` on two
ints is a float: divide coefficients with ``Fraction(a, b)``.  The
:mod:`fractions` module (which loads :mod:`decimal`) is imported only
where a Fraction is built: in :func:`rational` past its int fast path,
in the non-integral branch of the power kernel and in
:func:`from_json_obj`, so a process that stays on ints never loads it.

Truncation follows a no-fabrication rule: each operation returns a
window on which its result is fully determined by the operands, and
reading a coefficient past that window raises :class:`WindowError`
rather than returning a silent zero.  The window is not always the
largest such one: a product keeps the smaller operand order, which is
shorter than what is determined when an operand has leading zeros
(``pow(QSeries(0, (0, 1)), 2)`` knows q^2 but returns two coefficients).
This keeps "identity verified to order N" claims honest.

Two kernels do all the arithmetic.  Multiplication is schoolbook
convolution (the sparser operand drives the outer loop, so eta-like
series stay cheap).  Every power goes through one exact power kernel,
J.C.P. Miller's recurrence: :func:`pow`, :func:`invert` (the power -1)
and :func:`euler_product` (a power of Euler's pentagonal series).  It
costs O(order * nnz(base)) for any exponent and stays on ints whenever
the result is integral.  Each step is two sliding sums over the terms
found so far, read as one C-level ``sum`` per distinct nonzero value of
the base (two for the pentagonal series, +-1), so no bytecode runs per
term.  :func:`euler_coefficient` reads the eta powers
from one table, each exponent's row extended by the kernel from its known
head; tau(n) (e = 24) and the partition counts p(n) (e = -1) read it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Rational = Union[int, "Fraction"]
RationalLike = Union[int, "Fraction", str]

__all__ = [
    "QSeries",
    "WindowError",
    "rational",
    "add",
    "mul",
    "scalar_mul",
    "pow",
    "invert",
    "euler_product",
    "euler_coefficient",
    "one",
    "to_json_obj",
    "from_json_obj",
]


class WindowError(Exception):
    """A coefficient beyond the known truncation window was requested."""


def rational(x: RationalLike) -> Rational:
    """The normal form of an exact rational: int if integral, else Fraction.

    A float is refused with :class:`TypeError`: its binary expansion is
    not the rational it was written as (0.1 is not 1/10).
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"not an exact rational: float {x!r}; pass a Fraction, int or str")
    from fractions import Fraction

    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Record:
    """Read-only value record, the base of every value type the package returns.

    A subclass names its fields in constructor order in ``_fields`` and
    in ``__slots__``.  A validated type checks (or normalizes) them in
    its ``__init__`` and passes the values to ``Record.__init__``; a plain result
    inherits that ``__init__``, which takes every field positionally and
    raises :class:`TypeError` on a wrong number of values.
    Assignment and deletion raise :class:`AttributeError`; ``==`` and
    ``hash`` compare the tuple of every field between instances of the
    same class; ``repr`` prints ``Name(field=value, ...)``; pickling
    and copying rebuild through ``__init__`` from that same tuple.
    Plain classes, not dataclasses or named tuples: importing
    :mod:`dataclasses` loads :mod:`inspect`, and each dataclass or
    named tuple class is built from generated source, milliseconds of
    every CLI process's start-up.  Records are not tuples: they neither index
    nor unpack, and none equals a tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._fields)} values "
                f"({', '.join(self._fields)}), got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class QSeries(Record):
    """Truncated exact power series ``q^offset * sum c[j] q^j``.

    Values are kept in the normal form of :func:`rational`.
    """

    __slots__ = _fields = ("offset", "coeffs")

    def __init__(self, offset: RationalLike, coeffs: Sequence[RationalLike]) -> None:
        off = rational(offset)
        if 24 % off.denominator != 0:
            raise ValueError(
                f"offset denominator must divide 24, got {off.denominator}"
            )
        super().__init__(off, tuple(map(rational, coeffs)))

    # -- window bookkeeping -------------------------------------------------

    @property
    def order(self) -> int:
        """Number of known coefficients (integer steps from the offset)."""
        return len(self.coeffs)

    @property
    def end(self) -> Rational:
        """First unknown exponent, ``offset + order``."""
        return self.offset + len(self.coeffs)

    def coeff(self, exponent: RationalLike) -> Rational:
        """Exact coefficient of ``q^exponent``.

        Exponents below the window are zero (nothing sits under the
        leading monomial); exponents off the integer lattice of the
        offset but still inside the window are zero as well.  Exponents
        at or past ``offset + order`` raise :class:`WindowError`.
        """
        e = rational(exponent)
        if e >= self.end:
            raise WindowError(
                f"coefficient of q^{e} is beyond the known window "
                f"[{self.offset}, {self.end})"
            )
        rel = e - self.offset
        if rel < 0 or rel.denominator != 1:
            return 0
        return self.coeffs[int(rel)]

    def shift(self, delta: RationalLike) -> "QSeries":
        """Multiply by the monomial ``q^delta`` (exact, window unchanged)."""
        return QSeries(self.offset + rational(delta), self.coeffs)

    def truncate(self, order: int) -> "QSeries":
        """Restrict to the first ``order`` coefficients."""
        if order < 0 or order > len(self.coeffs):
            raise WindowError(
                f"cannot truncate to order {order}: only {len(self.coeffs)} "
                "coefficients are known"
            )
        return QSeries(self.offset, self.coeffs[:order])

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"QSeries(q^{self.offset} * [{head}{tail}], order={self.order})"


def one(order: int) -> QSeries:
    """The multiplicative identity known to ``order`` coefficients."""
    if order < 1:
        return QSeries(0, ())
    return QSeries(0, (1,) + (0,) * (order - 1))


# -- kernels ------------------------------------------------------------------


def _conv(a: Sequence[Rational], b: Sequence[Rational]) -> list[Rational]:
    """Cauchy product of the coefficient blocks, truncated to the shorter one.

    An empty block gives [].  The sparser block runs the outer loop, so
    multiplying by an eta-like pentagonal-support series costs
    O(sqrt(n) * n) instead of O(n^2).
    """
    n = min(len(a), len(b))
    if sum(1 for c in a[:n] if c) > sum(1 for c in b[:n] if c):
        a, b = b, a
    out = [0] * n
    for i, av in enumerate(a[:n]):
        if av:
            for j, bv in enumerate(b[: n - i]):
                if bv:
                    out[i + j] += av * bv
    return out


def add(f: QSeries, g: QSeries) -> QSeries:
    """Coefficientwise sum on the largest fully determined window."""
    if (g.offset - f.offset).denominator != 1:
        raise ValueError(
            "cannot add series on different exponent lattices "
            f"(offsets {f.offset} and {g.offset})"
        )
    off = min(f.offset, g.offset)
    # zeros below each offset; zip stops at the first unknown coefficient
    fa = [0] * int(f.offset - off) + list(f.coeffs)
    ga = [0] * int(g.offset - off) + list(g.coeffs)
    return QSeries(off, tuple(x + y for x, y in zip(fa, ga)))


def scalar_mul(c: RationalLike, f: QSeries) -> QSeries:
    c = rational(c)
    return QSeries(f.offset, tuple(c * x for x in f.coeffs))


def mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product; the kernel truncates it to the smaller operand order.

    Every returned coefficient is determined, but with leading zeros in
    an operand more are: q * q is known through q^2 from two
    coefficients each, yet the window stays two.
    """
    return QSeries(f.offset + g.offset, tuple(_conv(f.coeffs, g.coeffs)))


def _window(buf: list, places: list) -> zip:
    """A zip whose m-th step is the tuple of buf[i + m] for the i in ``places``.

    One list iterator per start, placed by ``__setstate__``; each reads
    ``buf`` live, so a slot written before a step is seen by that step.
    """
    its = [iter(buf) for _ in places]
    for it, i in zip(its, places):
        it.__setstate__(i)
    return zip(*its)


def _power(a: Sequence[Rational], e: int, n: int, head: Sequence = ()) -> list[Rational]:
    """First ``n`` coefficients of ``a^e`` for a coefficient list with a[0] != 0.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7):

        m a_0 g_m = s = sum_{k=1..m} ((e + 1) k - m) a_k g_{m-k},  g_0 = a_0^e.

    As (e + 1) k - m = e m - (e + 1)(m - k), s is the same integer
    e m V - (e + 1) H of the sliding sums V = sum a_k g_{m-k} and
    H = sum a_k h_{m-k}, h_i = i g_i (skipped for e = -1): per value of the
    nonzero a_k, a C-level ``sum`` of one :func:`_window` step over g or h
    kept behind n zeros, O(n * nnz(a)) for any e.  A known head is continued
    from m = len(head).  On ints (all a_k ints, and a_0 = +-1 or e >= 0) an
    inexact division raises ``ArithmeticError``; else each step is a Fraction.
    """
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, got {e!r}")
    a, a0 = a[:n], a[0]
    exact = all(type(c) is int for c in a) and (e >= 0 or a0 in (1, -1))
    if not exact:
        from fractions import Fraction
    # on ints with e < 0, a0 = +-1 and a0^e = a0^|e| stays an int
    g = list(head) or [a0 ** abs(e) if exact else Fraction(a0) ** e]
    h, pad = len(g), [0] * (n - len(g))
    G, H = [0] * n + g + pad, [0] * n + [i * c for i, c in enumerate(g)] + pad
    groups: dict = {}
    for k, c in enumerate(a[1:], 1):
        if c:
            groups.setdefault(c, []).append(n + h - k)
    sums = [(c, _window(G, p), e != -1 and _window(H, p)) for c, p in groups.items()]
    for m in range(h, n):
        v = w = 0
        for c, zg, zh in sums:
            v += c * sum(next(zg))
            if zh:
                w += c * sum(next(zh))
        s = e * m * v - (e + 1) * w
        q, r = divmod(s, m * a0) if exact else (Fraction(s, m * a0), 0)
        if r:
            raise ArithmeticError(f"inexact division at q^{m} in an integral power")
        G[n + m], H[n + m] = q, m * q
    return G[n:]


def invert(f: QSeries) -> QSeries:
    """Multiplicative inverse: mul(f, invert(f)) == 1 on the window.

    This is :func:`pow` with exponent -1, so it runs on the power kernel.
    """
    return pow(f, -1)


def pow(f: QSeries, e: int) -> QSeries:  # noqa: A001 - mirrors the series API
    """Integer power on the window of ``f``, by the power kernel.

    Negative exponents require a nonzero leading coefficient.  For
    e > 0 a base with v leading zeros is q^v h, so the result is h^e
    shifted by e v and padded with zeros; its window stays ``f.order``.
    """
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, got {e!r}")
    if e == 0:
        return one(f.order)
    n = f.order
    if e < 0 and (n == 0 or f.coeffs[0] == 0):
        raise ValueError("cannot invert a series with zero leading coefficient")
    v = next((j for j, c in enumerate(f.coeffs) if c), n)
    shift = e * v
    if shift >= n:
        return QSeries(e * f.offset, (0,) * n)
    tail = _power(f.coeffs[v:], e, n - shift)
    return QSeries(e * f.offset, tuple([0] * shift + tail))


def _pentagonal(order: int) -> list[int]:
    """Euler's pentagonal series sum_{k in Z} (-1)^k q^(k(3k-1)/2), ``order`` terms."""
    pent = [0] * order
    pent[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < order:
        sign = -1 if k & 1 else 1
        for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if j < order:
                pent[j] = sign
        k += 1
    return pent


def euler_product(e: int, order: int) -> QSeries:
    """Expansion of ``prod_{n>=1} (1 - q^n)^e`` to ``order`` coefficients, afresh.

    The pentagonal series is the case e = 1; every other exponent is its
    e-th power by the power kernel, in O(order^(3/2)) integer steps for any e.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return QSeries(0, tuple(_power(_pentagonal(order), e, order)))


_ROWS: dict[int, list[int]] = {}  # _ROWS[e][n] = coefficient of q^n in (q;q)_oo^e


def euler_coefficient(e: int, n: int) -> int:
    """Coefficient of ``q^n`` in ``prod_{k>=1} (1 - q^k)^e``, from one row per int e.

    A read past the end of the row grows it to the smallest 64 * 2^k above
    n by continuing the power kernel from the known head, so reads in any
    order cost one expansion of the row's final size.
    """
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, got {e!r}")
    row = _ROWS.get(e, ())
    if n >= len(row):
        order = 64
        while order <= n:
            order *= 2
        row = _ROWS[e] = _power(_pentagonal(order), e, order, row)
    elif n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return row[n]


# -- serialization -------------------------------------------------------------


def to_json_obj(f: QSeries) -> dict:
    """JSON form: {offset_num, offset_den, order, coeffs: [[num, den], ...]}."""
    return {
        "offset_num": f.offset.numerator,
        "offset_den": f.offset.denominator,
        "order": f.order,
        "coeffs": [[c.numerator, c.denominator] for c in f.coeffs],
    }


def from_json_obj(obj: dict) -> QSeries:
    from fractions import Fraction

    coeffs = [Fraction(n, d) for n, d in obj["coeffs"]]
    if len(coeffs) != obj["order"]:
        raise ValueError(
            f"coefficient count {len(coeffs)} does not match order {obj['order']}"
        )
    return QSeries(Fraction(obj["offset_num"], obj["offset_den"]), coeffs)
