"""Theta series, partition counts, Dyson rank tables, and mock theta series.

The pieces fit together as follows.  Diagonal theta series count lattice
points of a given squared norm.  Unary theta series weight each lattice
point n by eps(n) * n for an odd periodic eps, with a rational exponent
scale.  Partition counts p(n), the coefficients of 1 / prod (1 - q^k),
are read from the eta-power table of :mod:`qmodular.qseries`; the rank of a
partition is its largest part minus its number of parts, and N(n, m)
counts partitions of n with rank m.  :func:`rank_table` counts N(n, m)
directly by (largest part, number of parts), O(n_max^2) big-int
shift-adds, and :class:`RankTable` keeps each row n as one
:class:`OmegaPoly`, which every per-n query reads.  The two-variable
rank generating series

    R(w, q) = 1 + sum_{n>=1} q^(n^2) / prod_{m=1}^{n} (1 - w q^m)(1 - w^{-1} q^m)

is expanded with exact Laurent-polynomial coefficients in w, folding
each reciprocal factor in as an in-place recurrence, O(N^1.5) big-int
shift-adds for order N.  The n-th summand sits at q^(n^2), so it reads
the running inverse only below q^(order - n^2), and every later summand
reads less: each fold stops there, here and in :func:`mock_theta_f`.
Both kernels keep each dense DP row as one non-negative Python int
packed in fixed-width slots, so a row update is one C-level shift and
add, and both keep the w^m coefficient of row p in slot p + m.  The
DPs stay independent; they share three pieces: :func:`_slot_bytes`,
the slot width, from a proven bound on
the coefficients of 1/(q;q)_oo^r; :func:`_unpack_slots`, which reads
every slot of a row at C level (strided byte copies and one
``struct.unpack``); and :func:`_row_poly`, which hands a finished row
to the :class:`OmegaPoly` constructor, the one place that trims a row
to its normal form.  The w = -1 specialization of R(w, q)
reproduces the q-hypergeometric series

    f(q) = sum_{n>=0} q^(n^2) / ((1+q)(1+q^2)...(1+q^n))^2

expanded independently; that cross-check is the arbiter for both
pipelines, as the direct count of the rank table is for every
coefficient of R(w, q).  The direct expansion keeps the running
1/denominator as one dense integer list and folds each 1/(1+q^n)^2 in
as two ascending in-place passes, so order N costs O(N^1.5) integer
additions.
"""

from __future__ import annotations

import math
import struct
from itertools import compress, repeat
from operator import add, lshift
from typing import Mapping, Sequence

from .qseries import QSeries, RationalLike, Record, euler_coefficient, pow as qpow, rational

__all__ = [
    "OmegaPoly",
    "RankTable",
    "theta_diagonal",
    "unary_theta",
    "partition_count",
    "rank_table",
    "rank_generating",
    "mock_theta_f",
    "specialize_omega",
]


# -- theta series -----------------------------------------------------------------


def theta_diagonal(k: int, order: int) -> QSeries:
    """Theta series of the k-variable sum-of-squares form.

    Coefficient of q^m is the number of integer k-vectors of squared
    norm m.  Computed as the k-th power of the one-variable series
    1 + 2q + 2q^4 + 2q^9 + ...
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    base = [0] * order
    base[0] = 1
    n = 1
    while n * n < order:
        base[n * n] = 2
        n += 1
    theta1 = QSeries(0, base)
    return theta1 if k == 1 else qpow(theta1, k)


def unary_theta(eps: Sequence[int], kappa: RationalLike, order: int) -> QSeries:
    """Weighted unary theta series sum_{n in Z} eps(n) n q^(kappa n^2).

    ``eps`` is one period of an odd integer-valued map: eps(n) is read
    as eps[n mod L] for L = len(eps), and oddness
    (eps[-n mod L] == -eps[n mod L]) is required, which forces eps(0) = 0.
    By oddness the n and -n terms combine, so the result is
    sum_{n>=1} 2 eps(n) n q^(kappa n^2).

    Every entry of ``eps`` and ``order`` must be an int, and ``kappa`` a
    positive exact rational a/b with b dividing 24; a float in any of them
    is refused with TypeError before any work (for ``kappa``, by
    :func:`~qmodular.qseries.rational`).
    With first the least n >= 1 with eps(n) != 0, the term of n sits
    a (n^2 - first^2) / b integer steps past the offset kappa first^2.  A
    nonzero term whose step leaves a remainder is off that one lattice
    (offset + Z), so no single window holds it, and it is rejected.
    """
    if not (isinstance(order, int) and all(isinstance(e, int) for e in eps)):
        raise TypeError(f"eps entries and order must be ints, got {eps!r} and {order!r}")
    kappa = rational(kappa)
    if kappa <= 0 or 24 % kappa.denominator != 0:
        raise ValueError(f"kappa must be positive with denominator dividing 24, got {kappa}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    period = len(eps)
    if period < 1:
        raise ValueError("eps must have at least one entry")
    for r in range(period):
        if eps[(-r) % period] != -eps[r]:
            raise ValueError("eps must be odd: eps[-n mod L] == -eps[n mod L]")
    first = next((n for n in range(1, period) if eps[n]), None)
    if first is None:
        return QSeries(0, [0] * order)
    offset = kappa * first * first
    a, b = kappa.numerator, kappa.denominator
    coeffs = [0] * order
    n, step, rem = first, 0, 0
    while step < order:
        e = eps[n % period]
        if e:
            if rem:
                raise ValueError(
                    "exponents fall on more than one integer lattice "
                    f"(q^{offset} vs q^{kappa * n * n}); not representable"
                )
            coeffs[step] += 2 * e * n
        n += 1
        step, rem = divmod(a * (n * n - first * first), b)
    return QSeries(offset, tuple(coeffs))


# -- partitions and ranks -----------------------------------------------------------


def partition_count(n: int) -> int:
    """p(n), the coefficient of q^n in 1 / prod_{k>=1} (1 - q^k): the table row e = -1."""
    return euler_coefficient(-1, n)


class RankTable(Record):
    """Exact table of N(n, m): partitions of n whose rank is m.

    ``polys[n - 1]`` is row n as the Laurent polynomial
    sum_m N(n, m) w^m.  For every n, sum_m N(n, m) = p(n) and
    N(n, m) = N(n, -m) (conjugation), which the test suite verifies
    rather than assumes.  Each row query rejects n outside 1..n_max.
    """

    __slots__ = _fields = ("polys",)

    def __init__(self, polys: Sequence["OmegaPoly"]) -> None:
        super().__init__(tuple(polys))

    @property
    def n_max(self) -> int:
        return len(self.polys)

    def polynomial(self, n: int) -> "OmegaPoly":
        """The Laurent polynomial sum_m N(n, m) w^m."""
        if n < 1 or n > self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max}, got {n}")
        return self.polys[n - 1]

    def counts(self, n: int) -> dict[int, int]:
        """A new map m -> N(n, m) over the nonzero counts, in ascending m."""
        return self.polynomial(n).terms()

    def counts_mod(self, n: int, s: int) -> list[int]:
        """Partition counts of n grouped by rank residue mod s."""
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        return _residue_sums(self.polynomial(n), 1, s)

    def rows(self) -> list[tuple[int, int, int]]:
        """Every nonzero (n, m, N(n, m)), in ascending (n, m)."""
        return [
            (n, poly.lo + j, c)
            for n, poly in enumerate(self.polys, 1)
            for j, c in enumerate(poly.coeffs)
            if c
        ]


def rank_table(n_max: int) -> RankTable:
    """N(n, m) for all n <= n_max by dynamic programming.

    The DP counts partitions by (largest part, number of parts): with
    D_l(n, k) = #partitions of n into exactly k parts each <= l,
    D_l(n, k) = D_(l-1)(n, k) + D_l(n - l, k - 1), and the partitions
    with largest part exactly l and k parts are D_l(n - l, k - 1),
    contributing rank m = l - k.  Each row is one non-negative int packed
    in slots of ``_slot_bytes(1, n_max)`` bytes: slot n - k of D[n] holds
    D_l(n, k), updated in place as l grows, and slot n + m of rank[n]
    holds N(n, m), the layout of :func:`rank_generating`.  Part l
    adds the source row D[n - l] into D[n] shifted by l - 1 slots and
    into rank[n] shifted by 2l - 1 slots; both shifts depend on l alone.
    D[n] is no longer updated once n > n_max - l, since no later part
    reads it.  That is O(n_max^2) big-int shift-adds in place of
    O(n_max^3) per-element steps.  Each finished row is read once by
    :func:`_row_poly`.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    size = _slot_bytes(1, n_max)
    bits = 8 * size
    D = [0] * (n_max + 1)
    D[0] = 1
    rank = [0] * (n_max + 1)
    for part in range(1, n_max + 1):
        d_shift, rank_shift = (part - 1) * bits, (2 * part - 1) * bits
        for n in range(part, n_max - part + 1):
            D[n] += D[n - part] << d_shift
        for n in range(part, n_max + 1):
            rank[n] += D[n - part] << rank_shift
    return RankTable([_row_poly(rank[n], n, size) for n in range(1, n_max + 1)])


# -- exact Laurent polynomials in the phase variable --------------------------------


class OmegaPoly(Record):
    """Laurent polynomial in w with exact integer coefficients.

    ``coeffs[j]`` is the coefficient of w^(lo + j).  The constructor
    keeps one normal form, so equal polynomials compare and hash equal:
    it stores ``coeffs`` as a tuple with the zero entries at both ends
    trimmed (and ``lo`` moved past the leading ones) by C-level scans in
    from each end, and any all-zero input becomes the zero polynomial
    ``OmegaPoly(0, ())``.
    """

    __slots__ = _fields = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs: Sequence[int]) -> None:
        coeffs = tuple(coeffs)
        first = next(compress(range(len(coeffs)), coeffs), None)
        if first is None:
            super().__init__(0, ())
            return
        end = next(compress(range(len(coeffs), 0, -1), reversed(coeffs)))
        super().__init__(lo + first, coeffs[first:end])

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "OmegaPoly":
        """The polynomial sum_m terms[m] w^m."""
        lo, hi = min(terms, default=0), max(terms, default=-1)
        return OmegaPoly(lo, [terms.get(m, 0) for m in range(lo, hi + 1)])

    def terms(self) -> dict[int, int]:
        return {self.lo + j: c for j, c in enumerate(self.coeffs) if c}


# -- the rank generating series and its specializations -----------------------------


def rank_generating(order: int) -> list[OmegaPoly]:
    """Coefficients of q^0 .. q^(order-1) in R(w, q), exactly.

    Expanded straight from the sum-over-n form: the n-th summand is
    q^(n^2) times the running inverse of
    prod_{m<=n} (1 - w q^m)(1 - w^(-1) q^m).  Both series keep one
    non-negative int per power of q, packed in slots of
    ``_slot_bytes(2, order - 1)`` bytes: slot p + m of row p holds the
    coefficient of w^m q^p, which fits because |m| <= p.  Each reciprocal factor
    1/(1 - w^(+-1) q^n) folds in as the ascending in-place recurrence
    row[p] += row[p - n] shifted by n +- 1 slots, and the summand as
    result[n^2 + j] += row[j] shifted by n^2 slots, so each step is one
    big-int shift-add: O(order^1.5) of them.  The fold runs only over
    p < order - n^2: the recurrence reads lower rows alone, this summand
    reads no row above that, and every later one reads fewer.  Each
    finished row is read once by :func:`_row_poly`.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    size = _slot_bytes(2, order - 1)
    bits = 8 * size
    inv_den = [0] * order
    result = [0] * order
    inv_den[0] = result[0] = 1
    n = 1
    while n * n < order:
        for shift in ((n + 1) * bits, (n - 1) * bits):
            for p in range(n, order - n * n):
                inv_den[p] += inv_den[p - n] << shift
        shift = n * n * bits
        for j in range(order - n * n):
            result[n * n + j] += inv_den[j] << shift
        n += 1
    return [_row_poly(packed, p, size) for p, packed in enumerate(result)]


def _slot_bytes(r: int, n: int) -> int:
    """Bytes per slot for counts up to the q^n coefficient of 1/(q;q)_oo^r.

    Both rank kernels pack only non-negative counts, each at most a
    coefficient of q^p, p <= n, in 1/(q;q)_oo^r: r = 1 for the partition
    counts of :func:`rank_table`, r = 2 for :func:`rank_generating`,
    whose slots are at most their row's value at w = 1.  With F the generating function, that coefficient is at most
    F(e^-t) e^(pt) for every t > 0, and log F(e^-t) <= r pi^2 / (6t)
    (Apostol, Introduction to Analytic Number Theory, Thm 14.5); at
    t = pi sqrt(r / (6p)) this gives exp(pi sqrt(2 r p / 3)), which grows
    with p.  The width is that bound at p = n in bits plus 2, rounded up
    to whole bytes, so no slot carries into the next.
    """
    return math.ceil((math.pi * math.sqrt(2 * r * n / 3) / math.log(2) + 2) / 8)


def _unpack_slots(packed: int, count: int, size: int) -> tuple[int, ...]:
    """The ``count`` little-endian unsigned slots of ``size`` bytes in ``packed``.

    ``to_bytes`` at the exact length raises ``OverflowError`` for a bit
    above the top slot.  Each slot is padded to k = ceil(size / 8)
    64-bit words by ``size`` strided byte copies, one ``struct.unpack``
    reads every word, and the higher words (none for k = 1) are shifted and
    added in, so no step loops over the slots in Python.
    """
    raw = packed.to_bytes(count * size, "little")
    k = -(-size // 8)
    stride = 8 * k
    padded = bytearray(stride * count)
    for b in range(size):
        padded[b::stride] = raw[b::size]
    words = struct.unpack(f"<{k * count}Q", padded)
    vals = words[::k]
    for j in range(1, k):
        vals = map(add, vals, map(lshift, words[j::k], repeat(64 * j)))
    return tuple(vals)


def _row_poly(packed: int, p: int, size: int) -> OmegaPoly:
    """Row p, packed with slot p + m holding the w^m coefficient, as an OmegaPoly.

    Its 2p + 1 slots of ``size`` bytes are read by :func:`_unpack_slots`
    in that layout; the constructor trims the zero slots at both ends.
    """
    return OmegaPoly(-p, _unpack_slots(packed, 2 * p + 1, size))


def mock_theta_f(order: int) -> QSeries:
    """The series sum_{n>=0} q^(n^2) / ((1+q)(1+q^2)...(1+q^n))^2.

    The reciprocal of the running denominator is kept as one dense
    integer list.  Each 1/(1+q^n)^2 folds in as two ascending in-place
    passes of g[i] -= g[i - n] (the recurrence of g = h / (1+q^n)), so a
    step costs O(order) and the whole expansion O(order^1.5) integer
    additions.  The passes stop at i = order - n^2: g[i] reads only lower
    entries, the q^(n^2) summand reads none above that, and every later
    summand reads fewer.  It shares no code with :func:`rank_generating`,
    which it checks at w = -1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    acc = [0] * order
    acc[0] = 1  # n = 0 summand
    inv_den = [0] * order
    inv_den[0] = 1
    n = 1
    while n * n < order:
        for _ in range(2):
            for i in range(n, order - n * n):
                inv_den[i] -= inv_den[i - n]
        acc[n * n :] = map(add, acc[n * n :], inv_den)
        n += 1
    return QSeries(0, acc)


def specialize_omega(
    polys: Sequence[OmegaPoly], w: tuple[int, int]
) -> list:
    """Substitute w = exp(2 pi i r / s) into a coefficient sequence.

    ``w`` is the pair (r, s) with s >= 1.  For s in {1, 2} the result is
    a list of exact integers; for larger s, a list of length-s integer
    vectors on the basis 1, z, ..., z^(s-1) with z^s = 1.
    """
    r, s = w
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    sums = [_residue_sums(p, r, s) for p in polys]
    if s > 2:
        return [tuple(v) for v in sums]
    # z = 1 (s = 1) or z = -1 (s = 2): the value is an integer
    return [v[0] - sum(v[1:]) for v in sums]


def _residue_sums(poly: OmegaPoly, r: int, s: int) -> list[int]:
    """Value of ``poly`` at w = exp(2 pi i r / s) on the basis 1, z, ..., z^(s-1).

    Slot i sums the coefficients of the w^m with r m = i mod s, so for
    r = 1 it is the count of rank residue class i.
    """
    vec = [0] * s
    for j in range(min(s, len(poly.coeffs))):
        vec[r * (poly.lo + j) % s] += sum(poly.coeffs[j::s])
    return vec
