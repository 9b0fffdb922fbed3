"""Exact complex character table of the Suzuki 2-group.

The group of order 2^(2n) has 2^n linear characters and 2(2^n - 1)
characters of degree 2^k, k = (n-1)/2, and nothing else:

* linear, one per field element c:  (x, y) -> (-1)^tr(cx); these are
  exactly the characters trivial on the commutator subgroup {0} x F.
* nonlinear, one conjugate pair per nonzero gamma:

      (x, y) -> 0                                   x not in {0, gamma}
      (0, y) -> 2^k (-1)^tr(gamma^-3 y)
      (gamma, y) -> +/- i 2^k (-1)^tr(gamma^-3 y)

The "+" family is pinned as the orbit of the Heisenberg-model character
under the cube-scaling automorphisms and forms the hyperdifference set;
the "-" family consists of its complex conjugates.

The table's values live only in two int8 arrays (re, im) of shape
characters x classes, built by whole-table gathers over the field's
lookup tables; a `Character` labels one row.  Every value is 0, +/-1,
+/-2^k or +/-i 2^k with 2^k <= 16, widened to int64 wherever values
are summed.  Classes are read through
`GroupContext.class_of_element` alone, so no tuple partition is built.
During construction the "+" block is compared, in one whole-table
comparison, with the traces of the monomial representation: the traces
of the q images pi(x, 0), gathered at gamma^-1 x and signed by
(-1)^tr(gamma^-3 y), so the check does not rest on the character formula.

All values are Gaussian integers; the JSON export writes each one as
(re + i im) 2^log2 with re, im not both even.
Every computation in this module is exact.  `CharacterTable.verify`
makes one orthogonality product, the column relations, which for a
square table imply the row relations.  It reaches floating point only
through `exact.gram_tiles`, whose checked bound proves each result an
exact integer; each tile is checked and dropped as it comes, so no
classes x classes product is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bgroup import GroupContext
from .exact import gram_tiles
from .heis import RepContext

__all__ = [
    "Character",
    "CharacterTable",
    "build_character_table",
    "linear_characters",
    "nonlinear_characters",
]


@dataclass(frozen=True)
class Character:
    """Label of one table row; its values are that row of `CharacterTable.value_arrays`."""

    kind: str           # "linear" | "nonlinear"
    parameter: int      # c for linear, gamma for nonlinear
    sign: int           # 0 for linear, +1 / -1 for the conjugate pair
    degree: int

    @property
    def label(self) -> str:
        if self.kind == "linear":
            return f"lin[{self.parameter}]"
        return f"nl{'+' if self.sign > 0 else '-'}[{self.parameter}]"


def _strip_pow2(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(re, im, log2) with (re + i im) 2^log2 equal to the input and re, im
    not both even; a zero entry gives (0, 0, 0)."""
    v = re | im
    low = v & -v        # lowest set bit of re or im, whichever is lower
    log2 = np.where(v != 0, np.frexp(low)[1] - 1, 0)
    return re >> log2, im >> log2, log2


def _is_diagonal(re: np.ndarray, im: np.ndarray, diagonal: np.ndarray) -> bool:
    """Whether (re + i im)^H (re + i im) is the real matrix diag(diagonal),
    read one `gram_tiles` tile at a time; each tile is checked and dropped."""
    for rows, cols, t_re, t_im in gram_tiles(re, im):
        if rows == cols:
            at = np.arange(len(t_re))
            t_re[at, at] -= diagonal[rows]  # all zero exactly when the real part matches
        if t_re.any() or t_im.any():
            return False
    return True


def _representatives(group: GroupContext) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every class representative, in class order: the first
    occurrence of a class in `class_of_element`, hence its least member."""
    first = np.unique(group.class_of_element, return_index=True)[1]
    return first >> group.field.n, first & (group.field.order - 1)


def _signs(field, scalars: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(-1)^tr(s y) on the grid scalars x ys, as int8."""
    return 1 - 2 * field.trace_table[field.mul_table[scalars[:, None], ys]].astype(np.int8)


def linear_characters(group: GroupContext) -> np.ndarray:
    """Rows (x, y) -> (-1)^tr(cx) on the classes, for every field element c ascending."""
    return _signs(group.field, np.arange(group.field.order), _representatives(group)[0])


def _check_rep_traces(group: GroupContext, rep: RepContext, x_cls: np.ndarray,
                      y_cls: np.ndarray, re: np.ndarray, im: np.ndarray) -> None:
    """Raise unless (re, im)[gamma - 1, class] is the trace of pi_gamma on its representative.

    The traces come from the representation alone: pi_gamma(x, y) is
    pi(gamma^-1 x, 0) (-1)^tr(gamma^-3 y), so the q traces of the
    monomial images pi(x, 0) are gathered at gamma^-1 x and signed.
    """
    field = group.field
    # int8 holds |trace| <= 2^k <= 16, and numpy refuses a trace beyond it rather than wrap
    traces = np.array([rep.rep((x, 0)).trace() for x in field.elements()], dtype=np.int8)
    ginv = np.array([field.inv(g) for g in field.nonzero_elements()], dtype=np.int64)
    at = field.mul_table[ginv[:, None], x_cls]
    sign = _signs(field, field.cube_table[ginv], y_cls)
    bad = (traces[at, 0] * sign != re) | (traces[at, 1] * sign != im)
    if bad.any():
        row, ci = np.argwhere(bad)[0]
        raise AssertionError(
            f"character value disagrees with representation trace at "
            f"gamma={row + 1}, class rep {(int(x_cls[ci]), int(y_cls[ci]))}"
        )


def nonlinear_characters(group: GroupContext, rep: RepContext
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of the "+" degree-2^k character for each nonzero gamma, ascending.

    The rows are the three-case formula on the (q - 1) x classes grid and
    must equal the traces of the twisted monomial representations on
    every class representative; the "-" family is their conjugate.
    """
    field = group.field
    x_cls, y_cls = _representatives(group)
    gammas = np.arange(1, field.order)
    # np.int8 refuses a degree beyond int8 rather than wrap
    scaled = _signs(field, field.inverse_cube_table[gammas], y_cls) * np.int8(1 << field.k)
    re = np.where(x_cls == 0, scaled, 0)
    im = np.where(x_cls == gammas[:, None], scaled, 0)
    _check_rep_traces(group, rep, x_cls, y_cls, re, im)
    return re, im


@dataclass(frozen=True, eq=False)
class CharacterTable:
    group: GroupContext
    characters: tuple[Character, ...]
    d_set: tuple[int, ...]      # indices of the "+" family, gamma ascending
    value_arrays: tuple[np.ndarray, np.ndarray]  # (re, im) int8, characters x classes; exact

    @cached_property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.group.class_of_element)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(ch.degree for ch in self.characters)

    def verify(self) -> None:
        """Exact checks that prove the table; one orthogonality product suffices.

        With X the square characters x classes table and W the diagonal of
        class sizes, each a positive divisor of |G|, column orthogonality
        X^H X = |G| W^-1 makes X invertible with inverse W X^H / |G|, so
        X W X^H = |G| I: row orthogonality (Isaacs, Character Theory of
        Finite Groups, 1976, ch. 2).
        """
        nchar, ncls = len(self.characters), len(self.class_sizes)
        if nchar != ncls:
            raise AssertionError(f"table is not square: {nchar} characters, {ncls} classes")
        order = self.group.order
        w = self.class_sizes
        if (w <= 0).any() or (order % w).any():
            raise AssertionError("class sizes are not all positive divisors of the group order")
        if sum(d * d for d in self.degrees) != order:
            raise AssertionError("squared degrees do not sum to the group order")
        re, im = self.value_arrays
        # sum_chi conj(chi(g)) chi(h) = |G|/|class| delta: the table's Hermitian Gram
        if not _is_diagonal(re, im, order // w):
            raise AssertionError("column orthogonality fails")
        if not np.array_equal(re[:, 0], np.array(self.degrees)) or im[:, 0].any():
            raise AssertionError("identity-class column disagrees with the degrees")

    def d_set_sum(self, class_index: int, weighted: bool = False) -> tuple[int, int]:
        """Sum (re, im) of the hyperdifference-family values on one class."""
        rows = list(self.d_set)
        re, im = (a[rows, class_index].astype(np.int64) for a in self.value_arrays)
        w = np.array(self.degrees)[rows] if weighted else 1
        return int((w * re).sum()), int((w * im).sum())

    def to_json_dict(self) -> dict:
        re, im, log2 = (a.tolist() for a in _strip_pow2(
            *(part.astype(np.int64) for part in self.value_arrays)))
        x_cls, y_cls = _representatives(self.group)
        return {
            "order": self.group.order,
            "modulus": self.group.field.modulus,
            "classes": [
                {"representative": [x, y], "size": size}
                for x, y, size in zip(x_cls.tolist(), y_cls.tolist(), self.class_sizes.tolist())
            ],
            "characters": [
                {
                    "label": ch.label,
                    "degree": ch.degree,
                    "values": [
                        {"re": r, "im": i, "log2": e}
                        for r, i, e in zip(re[j], im[j], log2[j])
                    ],
                }
                for j, ch in enumerate(self.characters)
            ],
            "d_set": [self.characters[j].label for j in self.d_set],
        }


def build_character_table(group: GroupContext, rep: RepContext) -> CharacterTable:
    """Assemble and verify the full table: linear block, then "+", then "-"."""
    lin = linear_characters(group)
    re, im = nonlinear_characters(group, rep)
    arrays = (np.concatenate([lin, re, re]), np.concatenate([np.zeros_like(lin), im, im]))
    del lin, re, im
    q, degree = group.field.order, 1 << group.field.k
    arrays[1][2 * q - 1:] *= -1     # the "-" rows, conjugate to the "+" rows
    chars = tuple(Character("linear", c, 0, 1) for c in range(q)) + tuple(
        Character("nonlinear", g, sign, degree) for sign in (+1, -1) for g in range(1, q))
    table = CharacterTable(group, chars, tuple(range(q, 2 * q - 1)), arrays)
    table.verify()
    return table
