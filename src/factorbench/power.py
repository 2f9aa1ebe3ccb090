"""Reduced power monoids: identity-containing subsets of a finite monoid
under setwise multiplication, with the atomicity criterion and the kappa
bound read off the base monoid."""

from __future__ import annotations

from operator import or_
from typing import NamedTuple

from .core import FiniteMonoid, _check_order
from .errors import CrossCheckMismatch
from .factorization import classify_arithmetic, minimal_catalog


def _setwise_monoid(K: FiniteMonoid) -> FiniteMonoid:
    """The reduced power monoid of K, by one union per table entry.

    Each element is a characteristic bitmask over the base with bit 0, the
    identity, always set; its index is the mask shifted right by one, so the
    singleton {1} is element 0, and its name spells out the subset.  For
    each base element x, x*B over every mask B grows from B minus its lowest
    bit; then the row of A is (A minus its top bit)*B | top*B over the row
    of a smaller A."""
    n = K.size
    _check_order(1 << (n - 1), f"the reduced power monoid of a base of size {n}")
    masks = range(1, 1 << n, 2)
    images = []
    for row in K.table:
        image = [0] * (1 << n)
        for b in range(1, 1 << n):
            low = b & -b
            image[b] = image[b ^ low] | 1 << row[low.bit_length() - 1]
        images.append([m >> 1 for m in image[1::2]])
    table = [images[0]]
    for ma in masks[1:]:
        top = ma.bit_length() - 1
        table.append(list(map(or_, table[(ma ^ 1 << top) >> 1], images[top])))
    names = tuple(
        "{" + ",".join(K.names[i] for i in range(n) if m >> i & 1) + "}" for m in masks
    )
    return FiniteMonoid(table, names)


def build_reduced_power_monoid(K: FiniteMonoid) -> FiniteMonoid:
    """The reduced power monoid of K, built once and kept as K.reduced_power."""
    return K.reduced_power


def atomicity_criterion(K: FiniteMonoid) -> bool:
    """The base-monoid test (no x outside the identity with x*x == 1 or
    x*x == x), cross-checked against direct atomicity of the built power
    monoid."""
    syntactic = all(
        K.table[x][x] != 0 and K.table[x][x] != x for x in range(1, K.size)
    )
    direct = classify_arithmetic(build_reduced_power_monoid(K)).atomic
    if syntactic != direct:
        raise CrossCheckMismatch(
            f"power-monoid atomicity: criterion={syntactic}, direct={direct}"
        )
    return syntactic


class KappaReport(NamedTuple):
    kappa: int
    bound: int
    attains_bound: bool


def kappa_report(K: FiniteMonoid) -> KappaReport:
    """kappa of the reduced power monoid against the proven bound |K| - 1."""
    cat = minimal_catalog(build_reduced_power_monoid(K))
    bound = K.size - 1
    if cat.kappa > bound:
        raise CrossCheckMismatch(f"kappa {cat.kappa} exceeds bound {bound}")
    return KappaReport(cat.kappa, bound, cat.kappa == bound)
