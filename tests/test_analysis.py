"""The atom-digraph analysis: it agrees with the per-atom, per-vertex and
simple-path searches it replaced (kept in oracles.py), and a request
computes each of its quantities once."""

from collections import Counter

import pytest

import factorbench as fb
from factorbench import corpus, factorization
from factorbench.cli import main
from factorbench.core import FiniteMonoid
from factorbench.corpus import corpus_members, scan_member
from factorbench.factorization import AtomAnalysis, LengthSet
from factorbench.power import atomicity_criterion, build_reduced_power_monoid, kappa_report
from oracles import (
    class_count_vector,
    packed_bucket_catalog,
    path_catalog,
    potential_labeling,
    pumpable_vertex,
    tuple_layered_catalog,
)
from test_random_monoids import INSTANCES


def test_potentials_and_cycles_match_oracles(sample_corpus):
    monoids = sample_corpus + corpus_members(3)
    monoids += [(f"seed{seed}", H) for seed, H in INSTANCES]
    # many atom classes, each searched on its own; and one class of 48 atoms
    monoids += [
        ("null(22)", fb.null_monoid(22)),
        ("P(C6)", build_reduced_power_monoid(fb.cyclic(6))),
        ("N3xC48", fb.direct_product(fb.null_monoid(1), fb.cyclic(48))),
    ]
    for name, H in monoids:
        for a in H.atoms:
            assert fb.is_powerful(H, a) == potential_labeling(H, a), (name, a)
        assert H.analysis.reaches_cycle() == (pumpable_vertex(H) is not None), name


def test_catalog_matches_path_oracle(sample_corpus):
    monoids = sample_corpus + corpus_members(3)
    monoids += [(f"seed{seed}", H) for seed, H in INSTANCES]
    monoids += [
        ("P(N3)", build_reduced_power_monoid(fb.null_monoid(1))),
        ("P(C4)", build_reduced_power_monoid(fb.cyclic(4))),
        ("null(5)", fb.null_monoid(5)),
    ]
    for name, H in monoids:
        got, kappa = _catalog_pairs(H)
        got = {x: pairs for x, pairs in got.items() if pairs}
        assert (got, kappa) == path_catalog(H), name


def _catalog_pairs(H):
    """The catalog as (class-count vector, representative) pairs, the vectors
    counted by the oracle from each representative."""
    cat = fb.minimal_catalog(H)
    width = len(H.atom_classes)
    got = {
        x: [(class_count_vector(H.atom_class_of, width, w), w) for w in cat.classes_of(x)]
        for x in H.elements()
    }
    return got, cat.kappa


def test_packed_catalog_matches_tuple_scan(sample_corpus):
    monoids = sample_corpus + corpus_members(3)
    monoids += [(f"seed{seed}", H) for seed, H in INSTANCES]
    monoids += [(f"P(C{m})", build_reduced_power_monoid(fb.cyclic(m))) for m in range(4, 8)]
    monoids += [
        ("P(N3)", build_reduced_power_monoid(fb.null_monoid(1))),
        ("P(N4)", build_reduced_power_monoid(fb.null_monoid(2))),
        ("P(C2xC2)", build_reduced_power_monoid(fb.direct_product(fb.cyclic(2), fb.cyclic(2)))),
    ]
    monoids += [(f"null({k})", fb.null_monoid(k)) for k in (5, 20, 60)]
    for name, H in monoids:
        expected = tuple_layered_catalog(H.table, H.atoms, H.atom_class_of)
        assert _catalog_pairs(H) == expected, name


def transformation_monoid(gens, points):
    """The maps on range(points) generated by gens, composed as (f*g)(p) =
    f(g(p)), in breadth-first order from the identity."""
    maps = [tuple(range(points))]
    index = {maps[0]: 0}
    for f in maps:
        for g in gens:
            h = tuple(f[p] for p in g)
            if h not in index:
                index[h] = len(maps)
                maps.append(h)
    return FiniteMonoid([[index[tuple(f[p] for p in g)] for g in maps] for f in maps])


def test_catalog_matches_packed_bucket_walk():
    # the power monoids up to P(C8), null monoids, and the bases of the
    # catalog benchmark other than C5, C6 and N3
    n1, c2, h2 = fb.null_monoid(1), fb.cyclic(2), fb.two_element_with_zero()
    chain7 = FiniteMonoid([[max(i, j) for j in range(7)] for i in range(7)])
    monoids = corpus_members(5)
    monoids += [("P(N3)", build_reduced_power_monoid(n1))]
    monoids += [(f"P(C{m})", build_reduced_power_monoid(fb.cyclic(m))) for m in range(4, 9)]
    monoids += [("P(C2xC2)", build_reduced_power_monoid(fb.direct_product(c2, c2)))]
    monoids += [(f"null({k})", fb.null_monoid(k)) for k in (5, 22, 60)]
    monoids += [
        ("P(N1xH2)", build_reduced_power_monoid(fb.direct_product(n1, h2))),
        ("P(N1xC2)", build_reduced_power_monoid(fb.direct_product(n1, c2))),
        ("P(H2xC3)", build_reduced_power_monoid(fb.direct_product(h2, fb.cyclic(3)))),
        ("P(L7)", build_reduced_power_monoid(chain7)),
        ("P(T7)", build_reduced_power_monoid(transformation_monoid([(2, 0, 2), (2, 0, 0)], 3))),
    ]
    # six atoms in one associate class that do not commute, and six units
    monoids += [("N3xGL(2,2)", fb.direct_product(n1, fb.gl(2, 2)))]
    routes = Counter()
    groups = Counter()
    for name, H in monoids:
        expected = packed_bucket_catalog(H.table, H.atoms, H.atom_class_of, routes)
        assert _catalog_pairs(H) == expected, name
        if len(H.atoms) > 1:
            groups[_commutation(H)] += 1
    assert routes["submasks"] and routes["buckets"], routes
    # both the sorted search and the full one are compared on monoids with
    # two atoms or more, the sorted one also where only the atoms commute
    assert set(groups) == {"commutative", "atoms commute", "atoms do not commute"}, groups


def _commutation(H):
    t = H.table
    if all(t[x][y] == t[y][x] for x in H.elements() for y in H.elements()):
        return "commutative"
    if all(t[a][b] == t[b][a] for a in H.atoms for b in H.atoms):
        return "atoms commute"
    return "atoms do not commute"


def test_catalog_walks_submasks_when_fewer_than_buckets(monkeypatch):
    # Both walks answer every query alike, so only the calls show the choice.
    # The oracle tries every extension and routes each query by the rule, so
    # its counts stay those of the full search.  Production extends only by
    # the atoms after a state's last letter when the atoms commute, and skips
    # the query for an element with no bucket yet, so it makes fewer calls:
    # each must take the route the rule gives and receive buckets.
    calls = Counter()
    for route in ("submasks", "buckets"):
        walk = getattr(factorization, f"_dominated_via_{route}")

        def counted(kg, s, buckets, guards, walk=walk, route=route):
            assert buckets
            assert route == ("submasks" if 1 << s.bit_count() < len(buckets) else "buckets")
            calls[route] += 1
            return walk(kg, s, buckets, guards)

        monkeypatch.setattr(factorization, f"_dominated_via_{route}", counted)
    for name, H, oracle, production in (
        (
            "P(C6)",
            build_reduced_power_monoid(fb.cyclic(6)),
            Counter(submasks=717, buckets=125),
            Counter(submasks=458, buckets=6),
        ),
        (
            "P(C7)",
            build_reduced_power_monoid(fb.cyclic(7)),
            Counter(submasks=4594, buckets=269),
            Counter(submasks=2890, buckets=39),
        ),
        ("null(22)", fb.null_monoid(22), Counter(buckets=275), Counter()),
    ):
        routes = Counter()
        packed_bucket_catalog(H.table, H.atoms, H.atom_class_of, routes)
        calls.clear()
        AtomAnalysis.__dict__["catalog"].func(H.analysis)
        assert routes == oracle, name
        assert calls == production, name


def monogenic(size, index):
    """{1, a, ..., a^(size-1)} with a^size = a^index, element i being a^i."""

    def power(e):
        return e if e < size else index + (e - index) % (size - index)

    return FiniteMonoid([[power(i + j) for j in range(size)] for i in range(size)])


def test_catalog_field_width_on_monogenic_monoids():
    # One atom class whose count runs up to |H| - 1.  With index size - 1 the
    # monoid is nilpotent, {1, a, ..., a^(size-2), 0}; with index 2 the step
    # a^(size-1) * a = a^2 makes a candidate counting |H|, which the guard
    # bit must still compare correctly against (2,).
    # The field width |H|.bit_length() + 1 grows at every power of two, here
    # at 4, 8, 16, 32, 64, 128 and 256 elements.
    for size in [*range(3, 42), 63, 64, 65, 127, 128, 255, 256, 257]:
        for index in {2, size - 1}:
            H = monogenic(size, index)
            assert H.atoms == (1,), (size, index)
            got, kappa = _catalog_pairs(H)
            assert got == {x: [((x,), (1,) * x)] for x in H.elements()}, (size, index)
            assert kappa == size - 1
            assert (got, kappa) == tuple_layered_catalog(H.table, H.atoms, H.atom_class_of)


def test_catalog_of_the_one_element_monoid():
    # no atoms, so the packed vectors have no fields at all
    got, kappa = _catalog_pairs(fb.trivial())
    assert (got, kappa) == ({0: [((), ())]}, 0)


def test_analyze_searches_catalog_and_layers_once(monkeypatch, capsys):
    calls = {"catalog": 0, "length_sets": 0}
    for name in calls:
        prop = AtomAnalysis.__dict__[name]

        def counted(self, compute=prop.func, name=name):
            calls[name] += 1
            return compute(self)

        monkeypatch.setattr(prop, "func", counted)
    assert main(["analyze", "--null", "2"]) == 0
    capsys.readouterr()
    assert calls == {"catalog": 1, "length_sets": 1}


def test_power_monoid_is_built_once(monkeypatch, capsys):
    sizes = []
    init = FiniteMonoid.__init__

    def counted(self, table, names=None):
        sizes.append(len(table))
        init(self, table, names)

    monkeypatch.setattr(FiniteMonoid, "__init__", counted)
    assert main(["powerset", "--cyclic", "4"]) == 0
    capsys.readouterr()
    assert sizes == [4, 8]

    # the calls scripts/kappa_survey.py makes per base
    sizes.clear()
    K = fb.cyclic(4)
    atomicity_criterion(K)
    kappa_report(K)
    assert sizes == [4, 8]


def test_scan_member_names_the_first_gap_of_each_pair():
    # N3 = {1, a, 0} with a*a = 0: L(a) = {1}, L(0) = {2, 3, ...}
    H = fb.null_monoid(1)
    assert scan_member("N3", H) == []
    H.analysis.length_sets[2] = LengthSet.build({3}, 4, 1, {0})
    assert scan_member("N3", H) == ["N3: lengths 1+1 missing at 1*1"]
    # L(0) = {2, 3, 7, 8, ...}: the pair (0, 0) misses 4, 5 and 6, and only
    # its first gap in (a, b) order is named, pairs in (x, y) order
    H.analysis.length_sets[2] = LengthSet.build({2, 3}, 7, 1, {0})
    assert scan_member("N3", H) == [
        "N3: lengths 1+3 missing at 1*2",
        "N3: lengths 3+1 missing at 2*1",
        "N3: lengths 2+2 missing at 2*2",
    ]


@pytest.mark.parametrize(
    "arithmetic, group, violation",
    [
        ({"bf": True, "ff": False}, False, "N3: bf=True but ff=False"),
        ({}, True, "N3: group with non-trivial idempotents (2,)"),
    ],
    ids=["bf-ff", "idempotents"],
)
def test_scan_member_names_each_contradicted_flag(monkeypatch, arithmetic, group, violation):
    # N3 = {1, a, 0} is neither BF nor a group, and its zero is a non-trivial
    # idempotent; each stub contradicts one finite-case fact the scan checks
    H = fb.null_monoid(1)
    flags = fb.classify_arithmetic(H)
    monkeypatch.setattr(corpus, "classify_arithmetic", lambda _: flags._replace(**arithmetic))
    if group:
        monkeypatch.setattr(H, "units", frozenset(H.elements()))
    assert scan_member("N3", H) == [violation]
