"""Parameter search for constant-degree hyperdifference sets.

A candidate quadruple (n, k, l, m) asks for k characters of common
degree l >= 2 in a group of order n, spanning an ETF of dimension
m = k l^2 < n.  The degree must divide the group order, and a counting
argument forces n - 1 to divide m(m - 1).  Enumerating those conditions
for n <= 1023 yields 238 quadruples; restricting n to orders that admit
a nonabelian group at all (flag, off by default) trims the list to 224.

Two structural filters act on explicit group data supplied by the
caller (the Suzuki family is the only built-in source in this package):

* a conjugacy-class size bound derived from column orthogonality and
  Cauchy-Schwarz, which every nonidentity class must satisfy;
* character-sum lower bounds over the degree-l characters, in both the
  squared form and the absolute-value form.  The absolute-value form
  compares a sum of square roots of rationals against the root of a
  rational, done exactly: rationalizable cases are decided by squaring,
  the rest by interval refinement with rational endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .chartab import CharacterTable

__all__ = [
    "SearchTuple",
    "character_sum_filter",
    "conjugacy_size_filter",
    "enumerate_tuples",
    "is_nonabelian_order",
    "sum_sqrt_compare",
    "tuples_to_csv",
]


@dataclass
class SearchTuple:
    n: int
    k: int
    l: int
    m: int
    verdicts: dict = field(default_factory=dict)

    @property
    def lam(self) -> int:
        return self.m * (self.m - 1) // (self.n - 1)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_nonabelian_order(n: int) -> bool:
    """Whether some group of order n is nonabelian.

    Every group of order n is abelian exactly when n is cubefree and no
    prime q | n divides p^b - 1 for another prime power p^b | n.
    """
    f = _factorize(n)
    if any(e >= 3 for e in f.values()):
        return True
    for p, e in f.items():
        for q in f:
            if q == p:
                continue
            for b in range(1, e + 1):
                if (p ** b - 1) % q == 0:
                    return True
    return False


def enumerate_tuples(max_order: int, nonabelian_orders_only: bool = False) -> list[SearchTuple]:
    """All (n, k, l, m) with l | n, l >= 2, m = k l^2 < n, (n-1) | m(m-1).

    Sorted by (n, l, k).  The default flag setting reproduces the
    238-tuple calibration count at max_order = 1023; the restricted
    setting gives 224.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    out: list[SearchTuple] = []
    for n in range(2, max_order + 1):
        if nonabelian_orders_only and not is_nonabelian_order(n):
            continue
        for l in range(2, n):
            if n % l:
                continue
            sq = l * l
            if sq >= n:
                break
            for k in range(1, (n - 1) // sq + 1):
                m = k * sq
                if m >= n:
                    break
                if (m * (m - 1)) % (n - 1) == 0:
                    out.append(SearchTuple(n, k, l, m, {"integrality": True}))
    out.sort(key=lambda t: (t.n, t.l, t.k))
    return out


def conjugacy_size_filter(tup: SearchTuple, class_sizes: list[int],
                          commutator_index: int) -> bool:
    """Class-size bound for every nonidentity class, in exact rationals.

    Requires n/|C| >= commutator_index + (m / (l^2 k)) (n - m)/(n - 1),
    plus the consequence that at least half the characters are nonlinear
    (class count at least twice the commutator index).
    """
    n = tup.n
    if sum(class_sizes) != n:
        raise ValueError("class sizes do not sum to the group order")
    if n % commutator_index:
        raise ValueError("commutator index does not divide the group order")
    if class_sizes.count(1) < 1:
        raise ValueError("class data lacks an identity class")
    bound = Fraction(commutator_index) + \
        Fraction(tup.m, tup.l ** 2 * tup.k) * Fraction(n - tup.m, n - 1)
    sizes = sorted(class_sizes)
    for size in sizes[1:]:  # identity class exempt
        if Fraction(n, size) < bound:
            return False
    if len(class_sizes) < 2 * commutator_index:
        return False
    return True


def _is_square(r: Fraction) -> bool:
    a, b = math.isqrt(r.numerator), math.isqrt(r.denominator)
    return a * a == r.numerator and b * b == r.denominator


def _sqrt_exact(r: Fraction) -> Fraction:
    return Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))


def _sqrt_interval(r: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rational bounds on sqrt(r) with width about 2^-prec."""
    scale = 1 << prec
    lo = math.isqrt(r.numerator * r.denominator * scale * scale)
    den = r.denominator * scale
    return Fraction(lo, den), Fraction(lo + 1, den)


def sum_sqrt_compare(terms: list[Fraction], rhs_sq: Fraction) -> bool:
    """Decide sum_i sqrt(t_i) >= sqrt(rhs_sq) exactly.

    If every pairwise product t_i t_j is a rational square the left side
    squares to a rational and the comparison is immediate; otherwise
    rational interval refinement separates the two sides (they are then
    provably unequal algebraic numbers of this restricted shape).
    """
    terms = [t for t in terms if t != 0]
    if any(t < 0 for t in terms) or rhs_sq < 0:
        raise ValueError("square roots of negative rationals requested")
    if not terms:
        return rhs_sq == 0
    if all(_is_square(ti * tj) for i, ti in enumerate(terms)
           for tj in terms[i:]):
        lhs_sq = sum(terms) + 2 * sum(_sqrt_exact(ti * tj)
                                      for i, ti in enumerate(terms)
                                      for tj in terms[i + 1:])
        return lhs_sq >= rhs_sq
    prec = 8
    while prec <= 4096:
        lo = hi = Fraction(0)
        for t in terms:
            a, b = _sqrt_interval(t, prec)
            lo += a
            hi += b
        rlo, rhi = _sqrt_interval(rhs_sq, prec)
        if lo >= rhi:
            return True
        if hi < rlo:
            return False
        prec *= 2
    raise ArithmeticError("interval refinement did not separate the sides")


def character_sum_filter(tup: SearchTuple, table: CharacterTable) -> bool:
    """Lower bounds on sums over the degree-l characters at every g != 1.

    (i)  sum |chi(g)|^2 >= (n - m)/(n - 1), exact rationals;
    (ii) sum |chi(g)|   >= sqrt(k (n - m)/(n - 1)), via sum_sqrt_compare.
    """
    n = tup.n
    if table.group.order != n:
        raise ValueError(f"table is for a group of order {table.group.order}, tuple has n={n}")
    deg_l = [j for j, d in enumerate(table.degrees) if d == tup.l]
    if len(deg_l) < tup.k:
        return False
    sq_bound = Fraction(n - tup.m, n - 1)
    abs_bound_sq = Fraction(tup.k * (n - tup.m), n - 1)
    re, im = (a[deg_l].astype(int) for a in table.value_arrays)  # widened from int8
    for column in (re * re + im * im).T.tolist()[1:]:
        mods_sq = [Fraction(v) for v in column]
        if sum(mods_sq) < sq_bound:
            return False
        if not sum_sqrt_compare(mods_sq, abs_bound_sq):
            return False
    return True


CSV_HEADER = "n,k,l,m,lambda,verdict_integrality,verdict_classes,verdict_chars"


def tuples_to_csv(tuples: list[SearchTuple]) -> str:
    """Stable CSV rendering; missing verdicts stay empty."""
    def cell(t: SearchTuple, key: str) -> str:
        if key not in t.verdicts:
            return ""
        return "pass" if t.verdicts[key] else "fail"

    lines = [CSV_HEADER]
    for t in tuples:
        lines.append(",".join([
            str(t.n), str(t.k), str(t.l), str(t.m), str(t.lam),
            cell(t, "integrality"), cell(t, "classes"), cell(t, "chars"),
        ]))
    return "\n".join(lines) + "\n"
