"""Cross-validation on randomly generated monoids.

Transformation monoids (maps on a small point set, closed under composition,
identity adjoined) are associative by construction, so random instances give
wild shapes the curated corpus misses: non-commutative, non-reduced, odd
idempotent structure.  Everything seeded, so failures replay.
"""

import random

import pytest

import factorbench as fb
from factorbench import factorization
from factorbench.core import FiniteMonoid
from oracles import (
    brute_atoms,
    brute_lengths,
    brute_units,
    class_count_vector,
    class_space_catalog,
)


def random_transformation_monoid(seed, points=3, gens=2):
    rng = random.Random(seed)
    ident = tuple(range(points))
    maps = {ident}
    for _ in range(gens):
        maps.add(tuple(rng.randrange(points) for _ in range(points)))
    changed = True
    while changed:
        changed = False
        for f in tuple(maps):
            for g in tuple(maps):
                h = tuple(f[g[i]] for i in range(points))
                if h not in maps:
                    maps.add(h)
                    changed = True
    ordered = [ident] + sorted(maps - {ident})
    pos = {f: i for i, f in enumerate(ordered)}
    table = [
        [pos[tuple(f[g[i]] for i in range(points))] for g in ordered]
        for f in ordered
    ]
    names = ["".join(map(str, f)) for f in ordered]
    return FiniteMonoid(table, names)


def _instances():
    out = []
    for seed in range(60):
        H = random_transformation_monoid(seed, points=3, gens=2)
        if H.size <= 14 and len(H.atom_classes) <= 5:
            out.append((seed, H))
    return out


INSTANCES = _instances()


def test_generator_yields_enough_variety():
    assert len(INSTANCES) >= 15
    sizes = {H.size for _, H in INSTANCES}
    assert len(sizes) >= 4


@pytest.mark.parametrize("seed,H", INSTANCES, ids=[f"seed{s}" for s, _ in INSTANCES])
def test_structure_matches_brute_force(seed, H):
    assert set(H.units) == brute_units(H.table)
    assert set(H.atoms) == brute_atoms(H.table)
    rep = fb.property_battery(H)
    assert rep.acyclic == rep.group
    if rep.acyclic:
        assert rep.unit_cancellative


@pytest.mark.parametrize("seed,H", INSTANCES, ids=[f"seed{s}" for s, _ in INSTANCES])
def test_length_sets_match_brute_walks(seed, H):
    for x in H.elements():
        assert set(fb.length_set(H, x).up_to(8)) == brute_lengths(H, x, 8)


@pytest.mark.parametrize("seed,H", INSTANCES, ids=[f"seed{s}" for s, _ in INSTANCES])
def test_classifiers_and_catalog(seed, H):
    flags = fb.classify_arithmetic(H)
    assert flags.bf == flags.ff
    cat = fb.minimal_catalog(H)
    assert cat.kappa <= H.size - 1
    kappa, union = fb.kappa_and_dichotomy(H)
    assert union == tuple(range(kappa + 1))
    expected, expected_kappa = class_space_catalog(H)
    for x in H.elements():
        assert {
            class_count_vector(H.atom_class_of, len(H.atom_classes), w) for w in cat.classes_of(x)
        } == expected[x]
    assert cat.kappa == expected_kappa


@pytest.mark.parametrize("seed,H", INSTANCES, ids=[f"seed{s}" for s, _ in INSTANCES])
def test_prime_powerful_and_factoriality(seed, H, monkeypatch):
    monkeypatch.setattr(factorization, "WORD_CAP", 200_000)
    atomic = fb.classify_arithmetic(H).atomic
    for a in H.atoms:
        powerful, _ = fb.is_powerful(H, a)
        if powerful and atomic:
            assert fb.is_prime(H, a)[0]
        if powerful:
            cls = H.atom_class_of[a]
            for x in H.elements():
                words = fb.enumerate_factorizations(H, x, 5)
                vectors = {class_count_vector(H.atom_class_of, len(H.atom_classes), w) for w in words}
                assert len({v[cls] for v in vectors}) <= 1
    fb.factorial_battery(H)  # internal cross-checks must not trip


@pytest.mark.parametrize("seed,H", INSTANCES, ids=[f"seed{s}" for s, _ in INSTANCES])
def test_subadditivity(seed, H):
    lsets = {x: fb.length_set(H, x) for x in H.elements()}
    for x in H.elements():
        for y in H.elements():
            lxy = lsets[H.mul(x, y)]
            for a in lsets[x].up_to(7):
                for b in lsets[y].up_to(7):
                    assert (a + b) in lxy
