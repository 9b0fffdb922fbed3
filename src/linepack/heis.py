"""Finite Heisenberg group over Z_2^k and the degree-2^k representations.

The Heisenberg group here is generated by translation and modulation
operators on the 2^k-point function space over Z_2^k:

    (T_s f)(x) = f(x - e_s)          (M_t f)(x) = (-1)^(x . e_t) f(x)

They satisfy T_s^2 = M_t^2 = I, translations commute, modulations
commute, and T_s M_t = (-1)^(delta_st) M_t T_s; the group they generate
has order 2^(2k+1) and acts irreducibly.  Adjoining the scalar iI gives
the extended group of order 2^(2k+2) in which the Suzuki 2-group of
order 2^(2n), n = 2k+1, has its degree-2^k representations.

All operators are monomial (one nonzero entry per row and column, a
fourth root of unity), so they are stored as a permutation plus a vector
of powers of i and multiplied in O(2^k).  Dense Gaussian-integer forms
are materialized only for frame assembly.

A RepContext carries the distinguished representation pi of the Suzuki
group: a symplectic basis (x_s, y_t) of the trace-zero subspace is
pushed through the section of the Artin-Schreier map to field elements
a_s, b_t, and pi sends

    (a_s, y) -> (-1)^tr(y) i^tr(a_s^3) T_s
    (b_t, y) -> (-1)^tr(y) i^tr(b_t^3) M_t
    (1,   y) -> (-1)^tr(y) i I.

On an arbitrary element (x, y) the value is fixed by the subset of the
basis {a_s} + {b_t} + {1} that sums to x: its generator images are
multiplied in that fixed order and corrected by the central character
(-1)^tr(c + y), where (x, c) is the same generator product taken inside
the group.  One pass over the 2^n subsets, each the subset without its
top generator extended by one product, reaches every x exactly once
because the basis is independent.  The family realizing the
hyperdifference set is obtained by precomposing pi with the
cube-scaling automorphisms, one per nonzero field element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bgroup import Element, GroupContext

__all__ = [
    "MonomialMatrix",
    "RepContext",
    "heisenberg_generators",
    "modulation_matrices",
    "translation_matrices",
]


@dataclass(frozen=True)
class MonomialMatrix:
    """Unitary monomial matrix: row r has entry i^iexp[r] in column perm[r]."""

    perm: tuple[int, ...]
    iexp: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(size: int) -> "MonomialMatrix":
        return MonomialMatrix(tuple(range(size)), (0,) * size)

    @staticmethod
    def scalar(size: int, iexp: int) -> "MonomialMatrix":
        return MonomialMatrix(tuple(range(size)), (iexp % 4,) * size)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        perm = tuple(other.perm[p] for p in self.perm)
        iexp = tuple((self.iexp[r] + other.iexp[self.perm[r]]) % 4 for r in range(self.size))
        return MonomialMatrix(perm, iexp)

    def times_i_power(self, e: int) -> "MonomialMatrix":
        return MonomialMatrix(self.perm, tuple((p + e) % 4 for p in self.iexp))

    def trace(self) -> tuple[int, int]:
        """Trace as a Gaussian integer (re, im)."""
        re = im = 0
        for r in range(self.size):
            if self.perm[r] == r:
                e = self.iexp[r]
                if e == 0:
                    re += 1
                elif e == 1:
                    im += 1
                elif e == 2:
                    re -= 1
                else:
                    im -= 1
        return re, im

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense Gaussian-integer form as (re, im) int64 arrays."""
        re = np.zeros((self.size, self.size), dtype=np.int64)
        im = np.zeros((self.size, self.size), dtype=np.int64)
        rows = np.arange(self.size)
        cols = np.array(self.perm)
        e = np.array(self.iexp)
        re[rows, cols] = np.where(e == 0, 1, 0) - np.where(e == 2, 1, 0)
        im[rows, cols] = np.where(e == 1, 1, 0) - np.where(e == 3, 1, 0)
        return re, im


def translation_matrices(k: int) -> list[MonomialMatrix]:
    """T_s: permutation by XOR with the s-th basis bit of the index."""
    size = 1 << k
    return [MonomialMatrix(tuple(x ^ (1 << s) for x in range(size)), (0,) * size)
            for s in range(k)]


def modulation_matrices(k: int) -> list[MonomialMatrix]:
    """M_t: diagonal of signs read off bit t of the index."""
    size = 1 << k
    return [MonomialMatrix(tuple(range(size)),
                           tuple(2 * ((x >> t) & 1) for x in range(size)))
            for t in range(k)]


def heisenberg_generators(k: int) -> tuple[list[MonomialMatrix], list[MonomialMatrix]]:
    if k < 1:
        raise ValueError("k must be >= 1")
    return translation_matrices(k), modulation_matrices(k)


class RepContext:
    """The distinguished degree-2^k representation of a Suzuki 2-group."""

    def __init__(self, group: GroupContext):
        field = group.field
        self.group = group
        self.field = field
        self.k = field.k
        self.dim = 1 << self.k
        xs, ys = field.symplectic_basis()
        self.alphas = [field.artin_schreier_section(x) for x in xs]
        self.betas = [field.artin_schreier_section(y) for y in ys]
        self.basis = self.alphas + self.betas + [1]

        ts, ms = heisenberg_generators(self.k)
        images = [t.times_i_power(field.trace(field.cube(a)))
                  for t, a in zip(ts, self.alphas)]
        images += [m.times_i_power(field.trace(field.cube(b)))
                   for m, b in zip(ms, self.betas)]
        images.append(MonomialMatrix.scalar(self.dim, 1))
        self.generator_images = images

    @cached_property
    def _rep_x0(self) -> list[MonomialMatrix]:
        """Images of (x, 0) for every field element x, in the fixed product order.

        Subset `mask` of the basis is the subset without its top generator
        extended by that generator, so generators multiply in ascending
        basis position and each subset costs one product.
        """
        images = [MonomialMatrix.identity(self.dim)]
        products = [self.group.identity]
        for mask in range(1, self.field.order):
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            images.append(images[rest] @ self.generator_images[top])
            products.append(self.group.mul(products[rest], (self.basis[top], 0)))
        out: list[MonomialMatrix | None] = [None] * self.field.order
        for mat, (x, c) in zip(images, products):
            if out[x] is not None:
                raise AssertionError("generator field elements are linearly dependent")
            # the product reaches (x, c); correct by the central character at c
            out[x] = mat.times_i_power(2 * self.field.trace(c))
        return out

    @cached_property
    def dense_x0(self) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) int64 stacks of shape (q, 4^k): row x is pi(x, 0) flattened row-major."""
        dense = [mat.dense() for mat in self._rep_x0]
        return (np.stack([re.ravel() for re, _ in dense]),
                np.stack([im.ravel() for _, im in dense]))

    def rep(self, g: Element) -> MonomialMatrix:
        """pi(x, y) = pi(x, 0) (-1)^tr(y)."""
        return self._rep_x0[g[0]].times_i_power(2 * self.field.trace(g[1]))

    def rep_twisted(self, gamma: int, g: Element) -> MonomialMatrix:
        """Member gamma of the hyperdifference family: pi after inverse scaling.

        The per-element oracle for the table's rep-trace cross-check, which
        gathers the same traces for every (gamma, class) pair at once.
        """
        ginv = self.field.inv(gamma)
        return self.rep(self.group.scaling_automorphism(ginv, g))

