"""B-product groups over GF(2^n), specialized to the Suzuki 2-group.

The B-product of the additive group of GF(2^n) with itself twists the
second coordinate by a bilinear 2-cocycle B:

    (u, v) * (x, y) = (u + x, v + y + B(u, x))

The cocycle here is B(a, b) = a b^2, which makes the product the
Suzuki 2-group of order 2^(2n).  Its structure is driven entirely by the
antisymmetrized map Bhat(u, x) = B(u, x) + B(x, u): the center is
(ker of u -> Bhat(u, .)) x F, the commutator subgroup is {0} x span(Bhat),
and the conjugacy class of (u, v) is {u} x (v + range of Bhat(u, .)).
For the Suzuki cocycle and u != 0 that range is the hyperplane
ker tr(u^-3 .) attached to u, so noncentral classes have size 2^(n-1).
Class indices put the q = 2^n central singletons (0, y) first, at y, then
the two cosets over each x != 0: (x, y) has index q + 2(x - 1) + tr(x^-3 y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2n import FieldContext

__all__ = ["ConjugacyClass", "GroupContext"]

Element = tuple[int, int]


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Element
    members: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class GroupContext:
    """The group GF(2^n) x_B GF(2^n) with the canonical element order.

    Elements are (x, y) int pairs; the canonical enumeration is x outer,
    y inner, both ascending, and every matrix in the package indexes its
    rows and columns in this order.  Immutable once the class index is
    computed.
    """

    def __init__(self, field: FieldContext):
        self.field = field
        self.order = field.order ** 2
        self._B = lambda u, x: field.mul(u, field.square(x))
        self.identity: Element = (0, 0)

    # ------------------------------------------------------------------
    # group law
    # ------------------------------------------------------------------

    def cocycle_hat(self, u: int, x: int) -> int:
        """Antisymmetrized cocycle, the commutator map on first coordinates."""
        return self._B(u, x) ^ self._B(x, u)

    def mul(self, a: Element, b: Element) -> Element:
        return (a[0] ^ b[0], a[1] ^ b[1] ^ self._B(a[0], b[0]))

    def inv(self, a: Element) -> Element:
        # characteristic 2: -(u, v) has second coordinate v + B(u, u)
        return (a[0], a[1] ^ self._B(a[0], a[0]))

    def conjugate(self, g: Element, h: Element) -> Element:
        """h^-1 g h."""
        return self.mul(self.mul(self.inv(h), g), h)

    def commutator(self, g: Element, h: Element) -> Element:
        return self.mul(self.mul(self.inv(g), self.inv(h)), self.mul(g, h))

    # ------------------------------------------------------------------
    # canonical enumeration
    # ------------------------------------------------------------------

    def elements(self):
        q = self.field.order
        for x in range(q):
            for y in range(q):
                yield (x, y)

    # ------------------------------------------------------------------
    # conjugacy classes
    # ------------------------------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """`class_of_element` regrouped, members ascending, the least one the representative;
        the brute force is `test_bgroup`'s orbit computation through `conjugate`."""
        f = self.field
        cls = self.class_of_element
        idx = np.argsort(cls, kind="stable")
        members = list(zip((idx >> f.n).tolist(), (idx & (f.order - 1)).tolist()))
        ends = np.cumsum(np.bincount(cls)).tolist()
        return tuple(ConjugacyClass(members[a], tuple(members[a:b]))
                     for a, b in zip([0] + ends[:-1], ends))

    @cached_property
    def class_of_element(self) -> np.ndarray:
        """Element index -> conjugacy class index, by the module's coset formula."""
        f = self.field
        coset = f.trace_table[f.mul_table][f.inverse_cube_table]  # uint8 tr(x^-3 y) at (x, y)
        cls = np.arange(f.order - 2, 3 * f.order - 2, 2, dtype=np.int32)[:, None] + coset
        cls[0] = np.arange(f.order)
        return cls.ravel()

    def class_sizes(self) -> list[int]:
        return np.bincount(self.class_of_element).tolist()

    # ------------------------------------------------------------------
    # center and commutator subgroup
    # ------------------------------------------------------------------

    @cached_property
    def center(self) -> tuple[Element, ...]:
        """(ker of u -> Bhat(u, .)) x F, computed from the cocycle on a basis."""
        field = self.field
        basis = [1 << j for j in range(field.n)]
        kernel = [u for u in range(field.order)
                  if all(self.cocycle_hat(u, w) == 0 for w in basis)]
        return tuple((u, v) for u in kernel for v in range(field.order))

    @cached_property
    def commutator_subgroup(self) -> tuple[Element, ...]:
        """{0} x span of the antisymmetrized cocycle values."""
        field = self.field
        basis = [1 << j for j in range(field.n)]
        span = {0}
        for u in basis:
            for w in basis:
                b = self.cocycle_hat(u, w)
                if b and b not in span:
                    span |= {s ^ b for s in span}
        return tuple((0, v) for v in sorted(span))

    # ------------------------------------------------------------------
    # hyperplane quotients and scaling automorphisms (Suzuki cocycle)
    # ------------------------------------------------------------------

    def quotient_epimorphism(self, gamma: int, g: Element) -> tuple[int, int]:
        """Projection onto the order-2^(n+1) quotient attached to gamma != 0.

        Sends (x, y) to (x, tr(gamma^-3 y)); the kernel is {0} x (the
        hyperplane attached to gamma).
        """
        return (g[0], self.field.hyperplane_quotient(gamma, g[1]))

    def quotient_law(self, gamma: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """Multiplication in the quotient group: the cocycle becomes a bit."""
        bit = self.field.hyperplane_quotient(gamma, self._B(a[0], b[0]))
        return (a[0] ^ b[0], a[1] ^ b[1] ^ bit)

    def scaling_automorphism(self, gamma: int, g: Element) -> Element:
        """(x, y) -> (gamma x, gamma^3 y); an automorphism for the Suzuki cocycle."""
        if gamma == 0:
            raise ZeroDivisionError("scaling automorphism requires gamma != 0")
        f = self.field
        return (f.mul(gamma, g[0]), f.mul(f.cube(gamma), g[1]))

    # ------------------------------------------------------------------
    # vectorized index machinery
    # ------------------------------------------------------------------

    def inverse_product_index_grid(self, cols: np.ndarray,
                                   rows: np.ndarray | None = None) -> np.ndarray:
        """Int32 index of inv(g) * h for g in the selection `rows` of element
        indices (default `cols`) and h in the selection `cols`.

        This is the argument on which every group-scheme matrix entry
        depends: the (g, h) entry of any matrix in the adjacency algebra
        is a function of the class of inv(g) * h, and every Gram route
        but the frame's is a row over the group gathered here.
        """
        f = self.field
        n, mask = f.n, f.order - 1
        rows, cols = (np.asarray(s, np.int32) for s in (cols if rows is None else rows, cols))
        x, y = rows >> n, rows & mask
        a, b = cols >> n, cols & mask
        wx = x[:, None] ^ a[None, :]
        wy = (y ^ f.cube_table[x])[:, None] ^ b[None, :]
        wy ^= f.mul_table[x[:, None], f.square_table[a][None, :]]
        return (wx << n) | wy

    @cached_property
    def inverse_product_index_matrix(self) -> np.ndarray:
        """Full order x order grid of inv(g) * h indices (n <= 5 only)."""
        if self.order > 1 << 10:
            raise ValueError("full index matrix is too large; use inverse_product_index_grid")
        return self.inverse_product_index_grid(np.arange(self.order, dtype=np.int32))

    def __repr__(self) -> str:
        return f"GroupContext(order={self.order}, field={self.field!r})"
