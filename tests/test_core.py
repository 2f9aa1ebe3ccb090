import json
import re
from enum import IntEnum

import pytest

import factorbench as fb
from factorbench.core import FiniteMonoid, dump_cayley, parse_cayley
from factorbench.corpus import corpus_members, small_monoids
from factorbench.errors import CapExceeded, IndexOutOfRange, NoIdentity, NotAssociative
from oracles import (
    association_orbits,
    associativity_triples,
    brute_atoms,
    brute_divides,
    brute_units,
    divisor_closed_closure,
    element_order,
    entry_scan,
    idempotents,
    inverse_checked_units,
    matmul_gl_table,
    reduce_generating_set,
    restrict_table,
    semigroup_closure,
    stdlib_json_text,
)
from test_random_monoids import INSTANCES, random_transformation_monoid

N3_TABLE = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]


def test_trivial_monoid():
    H = FiniteMonoid([[0]])
    assert H.size == 1
    assert sorted(H.units) == [0]
    assert H.atoms == ()


def test_n3_table_accepted():
    assert associativity_triples(N3_TABLE) == []
    H = FiniteMonoid(N3_TABLE, ["1", "a", "0"])
    assert H.size == 3


def test_non_associative_rejected():
    table = [[0, 1, 2], [1, 0, 2], [2, 2, 1]]
    with pytest.raises(NotAssociative) as exc:
        FiniteMonoid(table)
    x, y, z = exc.value.triple
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_identity_violation_rejected():
    with pytest.raises(NoIdentity):
        FiniteMonoid([[1, 0], [0, 1]])


def test_out_of_range_rejected():
    with pytest.raises(IndexOutOfRange):
        FiniteMonoid([[0, 1], [1, 7]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteMonoid(N3_TABLE, ["1", "a"]), "got 2 names for 3 elements"),
        (lambda: FiniteMonoid(N3_TABLE, ["1", "a", "a"]), "element names must be distinct"),
        (lambda: FiniteMonoid(N3_TABLE, ("1", "a", 0)), "name 2 is 0, not a string"),
        (lambda: FiniteMonoid(N3_TABLE, (c for c in "1a0")), "names must be a list of 3 strings, not generator"),
        (lambda: fb.full_transformation(0), "need at least one point"),
        (lambda: fb.gl(0, 2), "need n >= 1 and modulus >= 2"),
        (lambda: fb.gl(2, 1), "need n >= 1 and modulus >= 2"),
    ],
    ids=["names-count", "names-repeat", "name-int", "names-generator", "no-points", "gl-size", "gl-modulus"],
)
def test_refusal_names_its_fault(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class Letter(IntEnum):
    A = 1
    B = 2


C4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]


def with_entry(x, y, v, table=C4_TABLE):
    out = [list(row) for row in table]
    out[x][y] = v
    return out


MALFORMED = {
    "bool": with_entry(1, 2, True),
    "bool zero": with_entry(3, 3, False),
    "float": with_entry(2, 1, 1.0),
    "negative": with_entry(1, 3, -1),
    "n": with_entry(2, 2, 4),
    "huge": with_entry(1, 1, 10**30),
    "string": with_entry(3, 1, "1"),
    "None": with_entry(1, 2, None),
    "unhashable": with_entry(2, 3, [1]),
    "short row": [[0, 1, 2, 3], [1, 2, 3], [2, 3, 0, 1], [3, 0, 1, 2]],
    "long row": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1, 2], [3, 0, 1, 2]],
    "short row after a bad entry": with_entry(1, 3, "0")[:3] + [[3, 0, 1]],
    "long row after a bad entry": with_entry(2, 0, 2.0)[:3] + [[3, 0, 1, 2, 3]],
    "bad entry after a short row": with_entry(3, 0, True)[:1] + [[1, 2]] + C4_TABLE[2:3] + [[3, 0, 1, 2.5]],
    "two bad entries": with_entry(1, 2, -1, with_entry(1, 1, 7)),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_entry_raises_like_the_entry_scan(name):
    table = MALFORMED[name]
    with pytest.raises(IndexOutOfRange) as exc:
        FiniteMonoid(table)
    assert str(exc.value) == entry_scan(table)


class Label(str):
    pass


def test_int_subclass_entries_are_accepted():
    table = with_entry(1, 1, Letter.B, with_entry(3, 2, Letter.A))
    assert entry_scan(table) is None
    H = FiniteMonoid(table)
    assert H.table == tuple(map(tuple, C4_TABLE))
    assert fb.property_battery(H).group
    # stored as plain ints and strs, which the exact-type writer takes
    assert all(type(v) is int for row in H.table for v in row)
    names = ["1", "g", "g^2", "g^3"]
    K = FiniteMonoid(table, list(map(Label, names)))
    assert all(type(s) is str for s in K.names)
    for M, plain in ((H, ["1", "x1", "x2", "x3"]), (K, names)):
        assert dump_cayley(M) == stdlib_json_text({"names": plain, "table": C4_TABLE}) + "\n"


@pytest.mark.parametrize("n,m", [(1, 7), (2, 3), (2, 5), (3, 2)])
def test_gl_table_matches_matrix_products(n, m):
    assert fb.gl(n, m).table == tuple(map(tuple, matmul_gl_table(n, m)))


def test_units_and_association_match_sandwich_scan(sample_corpus):
    monoids = sample_corpus + corpus_members(3) + [(f"seed{s}", H) for s, H in INSTANCES]
    monoids += [("gl(2,3)", fb.gl(2, 3)), ("C2xN3", fb.direct_product(fb.cyclic(2), fb.null_monoid(1)))]
    for name, H in monoids:
        t = H.table
        units = brute_units(t)
        assert H.units == units, name
        atoms = brute_atoms(t)
        classes = association_orbits(t, units)[1]
        assert H.atom_classes == tuple(c for c in classes if c[0] in atoms), name
        assert set().union(*H.atom_classes) == atoms, name


def test_units_are_the_rows_that_hold_the_identity():
    # the one-scan units against the two-scan predicate they replaced, on the
    # labelled monoids of order <= 4 and the families of the table workload:
    # cyclic products, GL(2,3) x C2 and transformation monoids
    small = [H for n in range(1, 5) for H in small_monoids(n)]
    assert len(small) == 1 + 2 + 11 + 156
    for H in small:
        assert H.units == inverse_checked_units(H.table) == brute_units(H.table), H.table
    monoids = [fb.direct_product(fb.cyclic(a), fb.cyclic(n // a))
               for n, a in ((64, 4), (80, 5), (96, 6), (144, 3), (144, 12))]
    monoids.append(fb.direct_product(fb.gl(2, 3), fb.cyclic(2)))
    monoids.append(fb.full_transformation(3))
    monoids += [random_transformation_monoid(seed, points=points, gens=gens)
                for seed, points, gens in ((4, 4, 2), (9, 4, 3), (8, 4, 3), (23, 5, 2))]
    for H in monoids:
        assert H.units == inverse_checked_units(H.table), H
    assert sorted(len(H.units) for H in monoids[-4:]) == [1, 1, 2, 3]


def test_instance_catalog():
    c3 = fb.cyclic(3)
    assert c3.size == 3
    assert fb.property_battery(c3).group

    t4 = fb.null_monoid(2)
    assert t4.size == 4
    assert associativity_triples(t4.table) == []

    with pytest.raises(CapExceeded, match="full transformation monoid capped at 3 points"):
        fb.full_transformation(4)
    with pytest.raises(CapExceeded, match=r"5\^9 candidate matrices exceed cap 1000000"):
        fb.gl(3, 5)


def test_built_orders_are_capped():
    # each check runs before the table is allocated, so huge orders fail at once
    cap = fb.core.ORDER_CAP
    assert cap >= 480
    for build in [
        lambda: fb.cyclic(cap + 1),
        lambda: fb.cyclic(10**12),
        lambda: fb.null_monoid(cap - 1),
        lambda: fb.null_monoid(10**12),
        lambda: fb.gl(2, 7),  # 2016 invertible matrices out of 2401 candidates
        lambda: fb.direct_product(fb.cyclic(32), fb.cyclic(33)),
    ]:
        with pytest.raises(CapExceeded, match=rf"has order \d+, above the cap {cap}$"):
            build()
    assert fb.cyclic(cap).size == cap


def test_gl25_builds_with_group_flags():
    H = fb.gl(2, 5)
    assert H.size == 480
    rep = fb.property_battery(H)
    assert rep.group and rep.acyclic and rep.cancellative and rep.unit_cancellative
    assert set(rep.witnesses) == {"commutative", "reduced"}


def test_gl22_is_the_six_element_group():
    # oracle: by hand over the 16 matrices of F_2, six have determinant 1
    invertible = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if (a * d - b * c) % 2 == 1:
                        invertible.append((a, b, c, d))
    assert len(invertible) == 6

    H = fb.gl(2, 2)
    assert H.size == 6
    report = fb.property_battery(H)
    assert report.group and report.acyclic
    # group axioms: everything is a unit with a two-sided inverse
    assert sorted(H.units) == list(H.elements())
    for u in H.elements():
        assert any(H.mul(u, v) == 0 == H.mul(v, u) for v in H.elements())


def test_full_transformation_sizes():
    assert fb.full_transformation(2).size == 4
    t3 = fb.full_transformation(3)
    assert t3.size == 27
    assert len(t3.units) == 6  # the permutations


def test_units_examples(n3):
    c3 = fb.cyclic(3)
    assert sorted(c3.units) == [0, 1, 2]
    assert sorted(n3.units) == [0]
    for name, H in [("C3", c3), ("N3", n3)]:
        assert set(H.units) == brute_units(H.table), name


def test_atoms_examples(n3):
    assert n3.atoms == (1,)
    assert fb.cyclic(5).atoms == ()
    assert brute_atoms(n3.table) == {1}


def test_atoms_match_definition(sample_corpus):
    for name, H in sample_corpus:
        assert set(H.atoms) == brute_atoms(H.table), name


def test_divides_examples(n3, h2, sample_corpus):
    assert n3.divides(1, 2)  # a divides 0 via a*a
    assert not h2.divides(1, 0)  # 0 divides only 0
    for name, H in sample_corpus:
        for x in H.elements():
            assert H.divides(0, x), name  # identity divides everything
    # check against the brute two-sided scan
    for name, H in sample_corpus + corpus_members(3):
        for x in H.elements():
            for y in H.elements():
                assert H.divides(x, y) == brute_divides(H.table, x, y), name


def test_association_partition(n3):
    # reduced monoid: singletons
    assert association_orbits(n3.table, n3.units) == ((0, 1, 2), ((0,), (1,), (2,)))
    assert n3.atom_classes == ((1,),)
    c2n3 = fb.direct_product(fb.cyclic(2), n3)
    # (1,a) and (g,a) are associated via the unit (g,1)
    a1 = c2n3.names.index("(1,a)")
    a2 = c2n3.names.index("(g,a)")
    class_of, classes = association_orbits(c2n3.table, c2n3.units)
    assert class_of[a1] == class_of[a2]
    assert classes[class_of[a1]] == (a1, a2)
    assert c2n3.atom_classes == ((a1, a2),)


def test_divisor_closed_submonoid(n3):
    assert divisor_closed_closure(n3.table, {1}) == {0, 1, 2}
    assert divisor_closed_closure(n3.table, set()) == {0}
    c3 = fb.cyclic(3)
    assert divisor_closed_closure(c3.table, {1}) == {0, 1, 2}


def test_divisor_closed_is_minimal_fixpoint(sample_corpus):
    for name, H in sample_corpus:
        for x in H.elements():
            M = divisor_closed_closure(H.table, {x})
            # closed under products and divisors
            for a in M:
                for b in M:
                    assert H.mul(a, b) in M, name
            for m in M:
                for d in H.elements():
                    if H.divides(d, m):
                        assert d in M, name
            # one removal round: no strictly smaller divisor-closed submonoid
            for e in M - {0, x}:
                sub = M - {e}
                closed = all(
                    H.mul(a, b) in sub for a in sub for b in sub
                ) and all(
                    d in sub
                    for m in sub
                    for d in H.elements()
                    if H.divides(d, m)
                )
                assert not closed, f"{name}: {e} removable"


def _check_witness(H, rep):
    t = H.table
    w = rep.witnesses
    if not rep.acyclic:
        u, x, v = w["acyclic"]
        assert t[t[u][x]][v] == x and (u not in H.units or v not in H.units)
    if not rep.unit_cancellative:
        x, y = w["unit_cancellative"]
        assert y not in H.units and (t[x][y] == x or t[y][x] == x)
    if not rep.cancellative:
        x, y, z = w["cancellative"]
        assert x != y and (t[x][z] == t[y][z] or t[z][x] == t[z][y])
    if not rep.normalizing:
        (a,) = w["normalizing"]
        assert {t[a][s] for s in H.elements()} != {t[s][a] for s in H.elements()}
    if not rep.commutative:
        x, y = w["commutative"]
        assert t[x][y] != t[y][x]
    if not rep.reduced:
        (u,) = w["reduced"]
        assert u != 0 and u in H.units
    if not rep.group:
        (x,) = w["group"]
        assert x not in H.units


def test_property_battery_c5():
    rep = fb.property_battery(fb.cyclic(5))
    assert rep.acyclic and rep.unit_cancellative and rep.cancellative
    assert rep.normalizing and rep.commutative and rep.group
    assert not rep.reduced  # non-trivial units


def test_property_battery_n3(n3):
    rep = fb.property_battery(n3)
    assert not rep.acyclic and not rep.unit_cancellative and not rep.cancellative
    assert rep.reduced and rep.commutative and not rep.group
    assert rep.witnesses["unit_cancellative"] == (2, 1)  # (0, a)
    _check_witness(n3, rep)


def test_property_battery_witnesses(sample_corpus):
    for name, H in sample_corpus:
        rep = fb.property_battery(H)
        _check_witness(H, rep)
        # implication chain on the flags
        if rep.group:
            assert rep.acyclic, name
        if rep.acyclic:
            assert rep.unit_cancellative, name


def test_finite_acyclic_iff_group(sample_corpus):
    for name, H in sample_corpus:
        rep = fb.property_battery(H)
        assert rep.acyclic == rep.group, name


def test_acyclic_members_have_no_nontrivial_idempotents(sample_corpus):
    for name, H in sample_corpus:
        rep = fb.property_battery(H)
        if rep.acyclic:
            assert idempotents(H.table) == (0,), name


def test_atom_sandwich_stays_atomic(sample_corpus):
    # units * atom * units always lands back in the atom set
    for name, H in sample_corpus:
        atom_set = set(H.atoms)
        for a in H.atoms:
            for u in H.units:
                for v in H.units:
                    assert H.mul(H.mul(u, a), v) in atom_set, name


def test_direct_product():
    c6 = fb.direct_product(fb.cyclic(2), fb.cyclic(3))
    assert c6.size == 6
    assert fb.property_battery(c6).group
    assert any(element_order(c6.table, x) == 6 for x in c6.elements())

    n3c2 = fb.direct_product(fb.null_monoid(1), fb.cyclic(2))
    rep = fb.property_battery(n3c2)
    assert not rep.acyclic
    _check_witness(n3c2, rep)

    H = fb.null_monoid(2)
    copy = fb.direct_product(fb.trivial(), H)
    assert copy.table == H.table


def test_atom_transversal(n3):
    assert tuple(c[0] for c in n3.atom_classes) == (1,)
    assert tuple(c[0] for c in fb.cyclic(5).atom_classes) == ()
    c2n3 = fb.direct_product(fb.cyclic(2), fb.null_monoid(1))
    trans = tuple(c[0] for c in c2n3.atom_classes)
    assert len(trans) == 1
    # sandwiching the representatives with unit pairs reproduces all atoms
    atoms = set(c2n3.atoms)
    regenerated = {
        c2n3.mul(c2n3.mul(u, a), v)
        for a in trans
        for u in c2n3.units
        for v in c2n3.units
    }
    assert regenerated == atoms


def test_atom_transversal_property(sample_corpus):
    for name, H in sample_corpus:
        trans = tuple(c[0] for c in H.atom_classes)
        regenerated = {
            H.mul(H.mul(u, a), v)
            for a in trans
            for u in H.units
            for v in H.units
        }
        assert regenerated == set(H.atoms), name
        class_of = association_orbits(H.table, H.units)[0]
        for i, a in enumerate(trans):
            for b in trans[i + 1 :]:
                assert class_of[a] != class_of[b], name


def _reduce(H, gens):
    class_of, classes = association_orbits(H.table, H.units)
    return reduce_generating_set(H.table, class_of, classes, gens)


def test_reduce_generating_set(n3, t4):
    assert _reduce(n3, {1, 2}) == {1}
    assert _reduce(n3, set()) == set()
    assert _reduce(t4, {1, 2, 3}) == {1, 2}


def test_reduce_generating_set_properties(sample_corpus):
    for name, H in sample_corpus:
        full = set(x for x in H.elements() if x not in H.units)
        reduced = _reduce(H, full)
        class_of, classes = association_orbits(H.table, H.units)

        def sandwiched(elems):
            out = set()
            for b in elems:
                out.update(classes[class_of[b]])
            return out

        if full:
            assert semigroup_closure(H.table, sandwiched(reduced)) == semigroup_closure(
                H.table, sandwiched(full)
            ), name
        for a in reduced:
            rest = [b for b in reduced if class_of[a] != class_of[b]]
            assert a not in semigroup_closure(H.table, sandwiched(rest)), name


def test_atoms_are_a_reduced_generating_set(sample_corpus):
    # In an atomic monoid the non-units are generated by the atoms up to
    # units, so a generating set of the non-units with no redundant member
    # is a set of atoms that meets every atom class.
    atomic = [
        (name, H)
        for name, H in sample_corpus + corpus_members(3)
        if fb.classify_arithmetic(H).atomic
    ]
    assert len(atomic) == 8 + 18
    for name, H in atomic:
        units = brute_units(H.table)
        class_of, classes = association_orbits(H.table, units)
        full = set(H.elements()) - units
        reduced = reduce_generating_set(H.table, class_of, classes, full)
        assert reduced <= set(H.atoms), name
        assert {H.atom_class_of[a] for a in reduced} == set(range(len(H.atom_classes))), name


def test_order_and_idempotents(n3):
    orders = tuple(element_order(n3.table, x) for x in n3.elements())
    assert orders == (1, 2, 1)  # ord(a) = |{a, 0}| = 2
    assert idempotents(n3.table) == (0, 2)
    assert idempotents(n3.table)[1:] == (2,)

    c3 = fb.cyclic(3)
    assert element_order(c3.table, 1) == 3
    assert idempotents(c3.table) == (0,)


def test_submonoid_roundtrip(n3):
    rows, back = restrict_table(n3.table, {0, 2})
    sub = FiniteMonoid(rows, [n3.names[e] for e in back])
    assert sub.size == 2 and back == (0, 2)
    assert sub.table == ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        restrict_table(n3.table, {1, 2})  # identity missing


def test_cayley_json_roundtrip(tmp_path, n3):
    path = tmp_path / "n3.json"
    fb.save_cayley(n3, path)
    text = path.read_text()
    assert text == dump_cayley(n3)
    assert json.loads(text) == {"names": ["1", "a", "0"], "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}
    loaded = fb.load_cayley(path)
    assert loaded.table == n3.table and loaded.names == n3.names
    # loader validates
    with pytest.raises(NoIdentity):
        parse_cayley(b'{"names": ["1", "x"], "table": [[1, 0], [0, 1]]}')
