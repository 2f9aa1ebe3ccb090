"""The atom-digraph analysis: it agrees with the per-atom, per-vertex and
simple-path searches it replaced (kept in oracles.py), and a request
computes each of its quantities once."""

import factorbench as fb
from factorbench.cli import main
from factorbench.core import FiniteMonoid
from factorbench.corpus import corpus_members, scan_member
from factorbench.factorization import AtomAnalysis, LengthSet
from factorbench.power import atomicity_criterion, build_reduced_power_monoid, kappa_report
from oracles import path_catalog, potential_labeling, pumpable_vertex, tuple_layered_catalog
from test_random_monoids import INSTANCES


def test_potentials_and_cycles_match_oracles(sample_corpus):
    monoids = sample_corpus + corpus_members(3)
    monoids += [(f"seed{seed}", H) for seed, H in INSTANCES]
    # every atom class meets its conflict before the search ends on these two
    monoids += [
        ("null(22)", fb.null_monoid(22)),
        ("P(C6)", build_reduced_power_monoid(fb.cyclic(6))),
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
        cat = fb.minimal_catalog(H)
        got = {
            x: [(e.counts, e.representative) for e in cat.classes_of(x)]
            for x in H.elements()
            if cat.classes_of(x)
        }
        assert (got, cat.kappa) == path_catalog(H), name


def _catalog_pairs(H):
    cat = fb.minimal_catalog(H)
    got = {x: [(e.counts, e.representative) for e in cat.classes_of(x)] for x in H.elements()}
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
    for size in range(3, 42):
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
