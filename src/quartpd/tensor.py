"""Order-4 symmetric tensors in compressed canonical storage.

A symmetric tensor is stored as a map from the sorted (1-based) index
4-tuple to an exact rational entry.  Every full-index operation weights a
canonical slot by its multinomial multiplicity: 1, 4, 6, 12 or 24
depending on the repetition pattern of the indices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .verdict import as_fraction

Index4 = Tuple[int, int, int, int]

_FOUR_FACTORIAL = 24

_ZERO = Fraction(0)  # what a missing slot reads; Fractions are immutable, so one serves all


def canonical_index(idx: Sequence[int]) -> Index4:
    if len(idx) != 4:
        raise ValueError(f"order-4 index expected, got {idx!r}")
    return tuple(sorted(idx))  # type: ignore[return-value]


def multiplicity(idx: Sequence[int]) -> int:
    """Number of distinct permutations of the index tuple."""
    counts = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    denom = 1
    for c in counts.values():
        denom *= math.factorial(c)
    return _FOUR_FACTORIAL // denom


def canonical_indices(dim: int) -> Iterable[Index4]:
    return itertools.combinations_with_replacement(range(1, dim + 1), 4)


# a canonical index's multiplicity by its equal-neighbour pattern (a==b, b==c, c==d);
# dim 4 holds all eight patterns
_MULTIPLICITY = {
    (a == b, b == c, c == d): multiplicity((a, b, c, d)) for a, b, c, d in canonical_indices(4)
}


def _refuse_conflicts(entries: Mapping[Sequence[int], object], permuted: Sequence) -> None:
    """Raise ``ValueError`` if two keys of ``entries`` name one slot with
    unequal values.  ``permuted`` holds its keys that are not sorted tuples:
    every other key names its own slot, so a conflict needs one of them."""
    named: Dict[Index4, Fraction] = {}
    for idx in permuted:
        cidx = tuple(sorted(idx))
        for key in (idx, cidx) if cidx in entries else (idx,):
            val = as_fraction(entries[key])
            if named.setdefault(cidx, val) != val:
                raise ValueError(f"conflicting values for slot {cidx}")


class SymmetricTensor4:
    """Immutable order-4 symmetric tensor of dimension ``dim``.

    Missing canonical slots read as zero; lookups with indices in any
    order resolve to the canonical slot.

    ``entries`` maps an index (4 ints in 1..dim, in any order) to anything
    ``as_fraction`` takes.  Input that is already canonical, sorted int
    4-tuples with ``Fraction`` values as ``tensorio.parse_document`` builds
    them, is checked but not converted again: per entry, three comparisons
    find the index sorted, its four types and its range are checked, and
    the value's type is tested.  Two indices that name one slot must give
    it equal values ("1/2", "2/4" and "0.5" are equal), or ``ValueError``
    names the slot.
    """

    __slots__ = ("dim", "_entries", "_form")

    def __init__(self, dim: int, entries: Mapping[Sequence[int], object]):
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dimension must be a positive int, got {dim!r}")
        canon: Dict[Index4, Fraction] = {}
        permuted = []  # the keys that are not sorted tuples: only they can share a slot
        for idx, val in entries.items():
            try:
                a, b, c, d = cidx = idx
                if not (type(idx) is tuple and a <= b <= c <= d):
                    a, b, c, d = cidx = tuple(sorted(idx))
                    permuted.append(idx)
            except TypeError:  # not a sequence, or entries that sort cannot order
                a = b = c = d = None
            except ValueError:  # not 4 entries
                raise ValueError(f"order-4 index expected, got {idx!r}") from None
            if not (type(a) is type(b) is type(c) is type(d) is int and 1 <= a and d <= dim):
                raise ValueError(f"index {idx!r} is not 4 ints in 1..{dim}")
            if type(val) is not Fraction:
                val = as_fraction(val)
            if val:
                canon[cidx] = val
        if permuted:
            _refuse_conflicts(entries, permuted)
        self.dim = dim
        self._entries = canon
        self._form = None

    def __getitem__(self, idx: Sequence[int]) -> Fraction:
        return self._entries.get(canonical_index(idx), _ZERO)

    def entries(self) -> Dict[Index4, Fraction]:
        return dict(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricTensor4):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __hash__(self):
        return hash((self.dim, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        return f"SymmetricTensor4(dim={self.dim}, nnz={len(self._entries)})"

    def integer_form(self) -> Tuple[int, Dict[Index4, int]]:
        """(E, {canonical index: coefficient}) with E the lcm of the entries'
        denominators and each coefficient that of the monomial
        x_i x_j x_k x_l in E·Tx^4: the entry t_ijkl times E and times the
        multiplicity of its index.  The canonical index names the monomial
        as its exponent tuple does, in 4 ints whatever the dimension.
        Computed on the first call and kept, since the tensor is immutable."""
        if self._form is None:
            E = math.lcm(*(t.denominator for t in self._entries.values()))
            form = {}
            for idx, t in self._entries.items():
                a, b, c, d = idx
                form[idx] = t.numerator * (E // t.denominator) * _MULTIPLICITY[a == b, b == c, c == d]
            self._form = (E, form)
        return self._form

    def evaluate_form(self, x: Sequence) -> Fraction:
        """Tx^4, summed in integers over the common denominators D of x and
        E of T: the integer form at D·x, divided by E·D^4."""
        if len(x) != self.dim:
            raise ValueError(f"vector length {len(x)} != tensor dim {self.dim}")
        ratios = [v.as_integer_ratio() for v in x]
        D = math.lcm(*(d for _, d in ratios))
        a = [n * (D // d) for n, d in ratios]
        E, form = self.integer_form()
        total = 0
        for (i, j, k, l), c in form.items():
            total += c * a[i - 1] * a[j - 1] * a[k - 1] * a[l - 1]
        return Fraction(total, E * D**4)

    def scale(self, c) -> "SymmetricTensor4":
        c = as_fraction(c)
        return SymmetricTensor4(
            self.dim, {idx: c * v for idx, v in self._entries.items()}
        )


def diag_ones(dim: int) -> SymmetricTensor4:
    """t_iiii = 1, everything else zero: the sum-of-fourth-powers form."""
    return SymmetricTensor4(dim, {(i, i, i, i): 1 for i in range(1, dim + 1)})
