"""Exact arithmetic in GF(2^n) for odd extension degree n.

Field elements are plain ints: bit j is the coefficient of x^j in the
polynomial basis, so addition is XOR and the additive/multiplicative
identities are the ints 0 and 1.  A FieldContext fixes the extension
degree n and an irreducible modulus.  At construction it finds the least
generator g of the multiplicative group, the least int >= 2 of order
2^n - 1 (x itself need not be one: under x^9 + x + 1 it has order 73),
and tabulates its powers and their logarithms.  Every product, square,
cube, inverse and Frobenius power is a lookup in this log/antilog pair,
and so is every numpy table below.  The context provides the structure
maps used by the group and frame layers:

* the absolute trace onto GF(2), whose kernel is the hyperplane of
  trace-zero elements;
* the Artin-Schreier map a -> a^2 + a and its section (the sum of even
  Frobenius powers), which are mutually inverse bijections of the
  trace-zero subspace;
* hyperplane membership tests v -> tr(u^-3 v), which realize the
  distinct hyperplanes attached to the nonzero field elements (the cube
  map is injective on nonzero elements because 2^n - 1 is coprime to 3
  when n is odd);
* deterministic symplectic bases of the trace-zero subspace under the
  alternating trace form, plus a self-dual normal basis cross-check.

Everything is exact integer arithmetic; the int32 numpy lookup tables for
the vectorized matrix paths are derived lazily from the log/antilog pair.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import xor

import numpy as np

__all__ = [
    "FieldContext",
    "is_irreducible",
    "least_irreducible",
]

# Largest degree for which the dense 2^n x 2^n int32 multiplication table
# is built (4 MiB at the cap).
_TABLE_DEGREE_CAP = 10


def _poly_rem(a: int, m: int) -> int:
    """Remainder of a modulo m, both polynomials over GF(2) as bit vectors."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def is_irreducible(modulus: int, n: int) -> bool:
    """Trial-divide a degree-n polynomial by every polynomial of degree <= n/2."""
    if modulus.bit_length() != n + 1:
        return False
    for d in range(1, n // 2 + 1):
        for p in range(1 << d, 1 << (d + 1)):
            if _poly_rem(modulus, p) == 0:
                return False
    return True


def least_irreducible(n: int) -> int:
    """Lexicographically least irreducible polynomial of degree n over GF(2)."""
    for m in range(1 << n, 1 << (n + 1)):
        if is_irreducible(m, n):
            return m
    raise RuntimeError(f"no irreducible polynomial of degree {n} found")


class FieldContext:
    """GF(2^n) with n odd, under a fixed irreducible modulus.

    Immutable after construction; all operations are pure, so a context
    can be shared freely across threads.
    """

    def __init__(self, n: int, modulus: int | None = None):
        if n < 3 or n % 2 == 0:
            raise ValueError(f"extension degree must be odd and >= 3, got {n}")
        if modulus is None:
            modulus = least_irreducible(n)
        if not is_irreducible(modulus, n):
            raise ValueError(f"modulus {modulus:#b} is not irreducible of degree {n}")
        self.n = n
        self.k = (n - 1) // 2
        self.modulus = modulus
        self.order = 1 << n
        self._exp, self._log = self._build_log_tables()
        if self.trace_table[1] != 1:
            raise AssertionError("tr(1) must be 1 for odd n")

    def _shift_xor_mul(self, a: int, b: int) -> int:
        """Product ab, shift-and-XOR with per-step reduction; builds the tables only."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.n:
                a ^= self.modulus
        return r

    def _build_log_tables(self) -> tuple[list[int], list[int]]:
        """Antilog table g^i, i < 2(2^n - 1), and log table of the least generator g."""
        for g in range(2, self.order):
            exp = [1]
            for _ in range(self.order - 2):
                exp.append(self._shift_xor_mul(exp[-1], g))
            if sorted(exp) == list(range(1, self.order)):
                break
        else:
            raise AssertionError("no exp table hits each nonzero element exactly once")
        log = [0] * self.order
        for i, a in enumerate(exp):
            log[a] = i
        return exp * 2, log

    # ------------------------------------------------------------------
    # core arithmetic
    # ------------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product ab = g^(log a + log b) from the log/antilog tables, g the least generator."""
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def cube(self, a: int) -> int:
        return self._exp[3 * self._log[a] % (self.order - 1)] if a else 0

    def inv(self, a: int) -> int:
        """Inverse g^(2^n - 1 - log a) from the log/antilog tables, g the least generator."""
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(2^n)")
        return self._exp[self.order - 1 - self._log[a]]

    def _frobenius_orbit(self, a: int) -> list[int]:
        """a^(2^j) for j < n, read from the log/antilog tables."""
        if a == 0:
            return [0] * self.n
        return [self._exp[(self._log[a] << j) % (self.order - 1)] for j in range(self.n)]

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    # ------------------------------------------------------------------
    # trace and the Artin-Schreier pair
    # ------------------------------------------------------------------

    def trace(self, a: int) -> int:
        """Absolute trace tr(a) = a + a^2 + ... + a^(2^(n-1)), in {0, 1}."""
        return int(self.trace_table[a])

    def artin_schreier(self, a: int) -> int:
        """The Artin-Schreier map a -> a^2 + a; image is the trace-zero subspace."""
        return self.square(a) ^ a

    def artin_schreier_section(self, a: int) -> int:
        """Sum of the even Frobenius powers a^(2^j), j even.

        Composed either way with the Artin-Schreier map this gives
        a + tr(a), so the two maps restrict to mutually inverse
        bijections of the trace-zero subspace.
        """
        return reduce(xor, self._frobenius_orbit(a)[0::2])

    def trace_zero(self) -> list[int]:
        """The 2^(n-1) elements of trace zero, ascending."""
        return [a for a in range(self.order) if self.trace_table[a] == 0]

    # ------------------------------------------------------------------
    # hyperplanes
    # ------------------------------------------------------------------

    def hyperplane_quotient(self, u: int, v: int) -> int:
        """tr(u^-3 v): 0 exactly when v lies in the hyperplane attached to u != 0.

        Distinct nonzero u give distinct hyperplanes since cubing is a
        bijection on nonzero elements for odd n.
        """
        if u == 0:
            raise ZeroDivisionError("hyperplane_quotient requires u != 0")
        return self.trace(self.mul(self.inv(self.cube(u)), v))

    def hyperplane(self, u: int) -> list[int]:
        """Members of the hyperplane attached to u != 0, ascending."""
        return [v for v in range(self.order) if self.hyperplane_quotient(u, v) == 0]

    # ------------------------------------------------------------------
    # symplectic structure of the trace-zero subspace
    # ------------------------------------------------------------------

    def symplectic_pairing(self, a: int, b: int) -> int:
        """tr(a b^2 + a^2 b), the symmetric form bridged to tr(ab) on trace zero."""
        return self.trace(self.mul(a, self.square(b)) ^ self.mul(self.square(a), b))

    @cached_property
    def _trace_zero_basis(self) -> list[int]:
        basis: list[int] = []
        span = {0}
        for a in self.trace_zero():
            if a and a not in span:
                basis.append(a)
                span |= {s ^ a for s in span}
        if len(basis) != self.n - 1:
            raise AssertionError("trace-zero subspace has wrong dimension")
        return basis

    def symplectic_basis(self) -> tuple[list[int], list[int]]:
        """Deterministic symplectic basis (x_s, y_t) of the trace-zero subspace.

        Symplectic Gram-Schmidt over GF(2), scanning in ascending bit
        order: tr(x_s x_t) = tr(y_s y_t) = 0 and tr(x_s y_t) = delta_st.
        The trace form is alternating and nondegenerate there, so the
        reduction never gets stuck.
        """
        rem = list(self._trace_zero_basis)
        xs: list[int] = []
        ys: list[int] = []
        while rem:
            rem.sort()
            x = rem[0]
            y = next(v for v in rem[1:] if self.trace(self.mul(x, v)) == 1)
            xs.append(x)
            ys.append(y)
            reduced = []
            for v in rem:
                if v in (x, y):
                    continue
                if self.trace(self.mul(v, y)):
                    v ^= x
                if self.trace(self.mul(v, x)):
                    v ^= y
                if v:
                    reduced.append(v)
            rem = sorted(set(reduced))
        self.validate_symplectic_basis(xs, ys)
        return xs, ys

    def validate_symplectic_basis(self, xs: list[int], ys: list[int]) -> None:
        """Check every pairing of a claimed symplectic basis; raise on failure."""
        k = self.k
        if len(xs) != k or len(ys) != k:
            raise ValueError(f"expected {k}+{k} basis vectors, got {len(xs)}+{len(ys)}")
        for v in xs + ys:
            if v == 0 or self.trace(v) != 0:
                raise ValueError(f"basis vector {v:#b} is not a nonzero trace-zero element")
        for s in range(k):
            for t in range(k):
                if self.trace(self.mul(xs[s], xs[t])) != 0:
                    raise ValueError(f"tr(x_{s} x_{t}) != 0")
                if self.trace(self.mul(ys[s], ys[t])) != 0:
                    raise ValueError(f"tr(y_{s} y_{t}) != 0")
                want = 1 if s == t else 0
                if self.trace(self.mul(xs[s], ys[t])) != want:
                    raise ValueError(f"tr(x_{s} y_{t}) != {want}")

    def self_dual_normal_basis(self) -> int:
        """Smallest z whose Frobenius orbit is a self-dual basis: tr(z^(2^i) z^(2^j)) = delta_ij.

        Existence is classical for odd n; exhaustion of the search space
        would therefore indicate an implementation bug.
        """
        for z in range(1, self.order):
            powers = self._frobenius_orbit(z)
            ok = True
            for i in range(self.n):
                for j in range(i, self.n):
                    want = 1 if i == j else 0
                    if self.trace(self.mul(powers[i], powers[j])) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return z
        raise RuntimeError("no self-dual normal basis generator found (bug)")

    def symplectic_from_normal_basis(self, z: int) -> tuple[list[int], list[int]]:
        """Symplectic basis derived from a self-dual normal basis generator."""
        powers = self._frobenius_orbit(z)
        xs = [powers[2 * s] ^ powers[2 * s + 1] for s in range(self.k)]
        ys = []
        for t in range(self.k):
            v = powers[2 * t]
            for j in range(2 * t + 2, self.n):
                v ^= powers[j]
            ys.append(v)
        self.validate_symplectic_basis(xs, ys)
        return xs, ys

    # ------------------------------------------------------------------
    # lookup tables for vectorized paths
    # ------------------------------------------------------------------

    def _power_table(self, e: int) -> np.ndarray:
        """a^e for every a, with 0^e = 0 (also for e < 0, as a sentinel)."""
        t = np.asarray(self._exp, dtype=np.int32)[e * np.asarray(self._log) % (self.order - 1)]
        t[0] = 0
        return t

    @cached_property
    def trace_table(self) -> np.ndarray:
        """tr(a) for every a, from n rounds of squaring the whole field at once."""
        table = np.zeros(self.order, dtype=np.int64)
        p = np.arange(self.order)
        for _ in range(self.n):
            table ^= p
            p = self.square_table[p]
        if table.max() > 1:
            raise AssertionError("trace landed outside GF(2)")
        return table.astype(np.uint8)

    @cached_property
    def mul_table(self) -> np.ndarray:
        if self.n > _TABLE_DEGREE_CAP:
            raise ValueError(f"the multiplication table is capped at n <= {_TABLE_DEGREE_CAP}")
        log = np.asarray(self._log)
        t = np.asarray(self._exp, dtype=np.int32)[log[:, None] + log[None, :]]
        t[0, :] = 0
        t[:, 0] = 0
        return t

    @cached_property
    def square_table(self) -> np.ndarray:
        return self._power_table(2)

    @cached_property
    def cube_table(self) -> np.ndarray:
        return self._power_table(3)

    @cached_property
    def inverse_cube_table(self) -> np.ndarray:
        """inv(a^3) for a != 0; index 0 is a 0 sentinel and must not be used."""
        return self._power_table(-3)

    def __repr__(self) -> str:
        return f"FieldContext(n={self.n}, modulus={self.modulus:#b})"
