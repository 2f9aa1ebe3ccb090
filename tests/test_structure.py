"""The structure layer against the exhaustive scans it replaced: the
associativity kernel agrees with the row-by-row map version of Light's test
on both of its kernels and names the first bad triple of the full triple
scan, the property battery gives the flags and witnesses of
oracles.naive_battery, none of them does more than its bound of table
subscripts, and the corpus's backtracking search yields the tables of the
full scan in its order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorbench as fb
from factorbench import core
from factorbench.core import FiniteMonoid
from factorbench.corpus import corpus_members, small_monoids
from factorbench.errors import NotAssociative
from oracles import (
    associativity_triples,
    brute_small_monoids,
    first_bad_triple,
    naive_battery,
    row_map_light_test,
)
from test_random_monoids import INSTANCES, random_transformation_monoid


def cyclic_table(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def s3_table():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    pos = {p: i for i, p in enumerate(perms)}
    return [[pos[tuple(f[g[i]] for i in range(3))] for g in perms] for f in perms]


def product_table(a, b):
    m = len(b)
    return [
        [a[i1][i2] * m + b[j1][j2] for i2 in range(len(a)) for j2 in range(m)]
        for i1 in range(len(a))
        for j1 in range(m)
    ]


# every group of order 2 to 6
GROUP_TABLES = [cyclic_table(m) for m in range(2, 7)] + [
    product_table(cyclic_table(2), cyclic_table(2)),
    product_table(cyclic_table(2), cyclic_table(3)),
    s3_table(),
]


def relabel(table, rng):
    """The same monoid with its non-identity elements permuted."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def assert_validation_matches_oracle(table):
    bad = associativity_triples(table)
    rows = tuple(map(tuple, table))
    gens = core._greedy_generators(rows)
    assert (core._first_non_associative(rows, gens) is None) == (not bad) == row_map_light_test(rows, gens)
    assert core._first_non_associative(rows, range(len(rows))) == (bad[0] if bad else None)
    try:
        FiniteMonoid(table)
    except NotAssociative as exc:
        assert bad and exc.triple == bad[0], (table, bad[:1], exc.triple)
    else:
        assert not bad, (table, bad[0])


def identity_fixed_table(n, entries):
    """Row 0 and column 0 are the identity's; entries fill the rest."""
    m = n - 1
    return [list(range(n))] + [
        [i] + list(entries[(i - 1) * m : i * m]) for i in range(1, n)
    ]


def mutated_group_table(table, x, y, v):
    """table with the entry at (x, y), x, y >= 1, set to v."""
    out = [list(row) for row in table]
    out[x][y] = v
    return out


@st.composite
def random_identity_fixed(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
    return identity_fixed_table(n, entries)


@st.composite
def near_group(draw):
    table = draw(st.sampled_from(GROUP_TABLES))
    n = len(table)
    x = draw(st.integers(1, n - 1))
    y = draw(st.integers(1, n - 1))
    return mutated_group_table(table, x, y, draw(st.integers(0, n - 1)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_identity_fixed(), near_group()))
def test_associativity_matches_triple_scan(table):
    assert_validation_matches_oracle(table)


def test_associativity_matches_triple_scan_seeded():
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.randint(1, 6)
        entries = [rng.randrange(n) for _ in range((n - 1) ** 2)]
        assert_validation_matches_oracle(identity_fixed_table(n, entries))
        table = rng.choice(GROUP_TABLES)
        n = len(table)
        mutated = mutated_group_table(
            table, rng.randrange(1, n), rng.randrange(1, n), rng.randrange(n)
        )
        assert_validation_matches_oracle(relabel(mutated, rng))


FLAGS = (
    "acyclic", "unit_cancellative", "cancellative", "normalizing",
    "commutative", "reduced", "group",
)


def _battery_monoids(sample_corpus):
    rng = random.Random(7)
    monoids = sample_corpus + corpus_members(4)
    monoids += [(f"seed{seed}", H) for seed, H in INSTANCES]
    for a, b in [(2, 6), (4, 6), (6, 8)]:
        table = relabel(product_table(cyclic_table(a), cyclic_table(b)), rng)
        monoids.append((f"C{a}xC{b}", FiniteMonoid(table)))
    gl23c2 = fb.direct_product(fb.gl(2, 3), fb.cyclic(2))
    monoids.append(("gl(2,3)xC2", FiniteMonoid(relabel(gl23c2.table, rng))))
    return monoids


def test_battery_matches_naive_scans(sample_corpus):
    for name, H in _battery_monoids(sample_corpus):
        rep = fb.property_battery(H)
        expected = naive_battery(H.table)
        assert rep.witnesses == expected, name
        assert list(rep.witnesses.items()) == list(expected.items()), name  # repr shows the order
        for flag in FLAGS:
            assert getattr(rep, flag) == (flag not in expected), (name, flag)


@pytest.mark.parametrize(
    "build, full_scans",
    [
        (lambda: product_table(cyclic_table(6), cyclic_table(8)), {"commutative"}),
        (lambda: fb.gl(2, 3).table, set()),
        (lambda: random_transformation_monoid(32, points=4).table, set()),
        (
            lambda: fb.direct_product(fb.cyclic(8), fb.null_monoid(4)).table,
            {"normalizing", "commutative"},
        ),
    ],
    ids=["C6xC8", "gl(2,3)", "transformation67", "C8xN4"],
)
def test_battery_matches_naive_scans_on_long_column_scans(build, full_scans):
    # The column scans stop at their first witness; on these tables the ones
    # in full_scans find none and run to the last row.
    H = FiniteMonoid(relabel(build(), random.Random(13)))
    assert H.size >= 40
    rep = fb.property_battery(H)
    expected = naive_battery(H.table)
    assert list(rep.witnesses.items()) == list(expected.items())
    assert not full_scans & expected.keys()
    if "normalizing" in full_scans:
        assert "group" in expected  # the normalizing scan runs only on a non-group


class CountingRow(tuple):
    """A table row that counts its subscripts in a shared counter."""

    def __new__(cls, row, counter):
        obj = super().__new__(cls, row)
        obj.counter = counter
        return obj

    def __getitem__(self, i):
        self.counter[0] += 1
        return tuple.__getitem__(self, i)


def test_no_triple_loop_on_a_group(monkeypatch):
    kernel = core._first_non_associative

    def generators_only(rows, middles):
        assert list(middles) != list(range(len(rows))), "every element was a middle factor"
        return kernel(rows, middles)

    monkeypatch.setattr(fb.core, "_first_non_associative", generators_only)
    H = fb.gl(2, 3)
    n = H.size
    counter = [0]
    H.table = CountingRow((CountingRow(r, counter) for r in H.table), counter)
    rep = fb.property_battery(H)
    assert rep.group and rep.acyclic and rep.cancellative
    assert counter[0] <= 10 * n * n  # a triple scan takes at least n^3 = 110592



def test_battery_is_quadratic_on_a_non_group():
    rng = random.Random(5)
    H = FiniteMonoid(relabel(random_transformation_monoid(23, points=5).table, rng))
    n = H.size
    assert n == 212 and len(H.units) < n
    expected = naive_battery(H.table)
    counter = [0]
    H.table = CountingRow((CountingRow(r, counter) for r in H.table), counter)
    assert fb.property_battery(H).witnesses == expected
    assert counter[0] <= 10 * n * n


def test_light_test_makes_each_row_in_one_step():
    rng = random.Random(11)
    table = tuple(map(tuple, relabel(random_transformation_monoid(23, points=5).table, rng)))
    n = len(table)
    gens = core._greedy_generators(table)
    counter = [0]
    rows = tuple(CountingRow(r, counter) for r in table)
    assert core._first_non_associative(rows, gens) is None
    # one subscript per (x, a) for x*a; the map version makes n per row
    assert counter[0] <= 2 * n * len(gens) < n * n * len(gens)
    assert row_map_light_test(table, gens)


def monogenic_table(index, period):
    """{1, x, ..., x^(index + period - 1)} with x^(index + period) = x^index."""
    n = index + period

    def power(k):
        return k if k < n else index + (k - index) % period

    return [[power(a + b) for b in range(n)] for a in range(n)]


def band_with_identity(a, b):
    """The a-by-b rectangular band, (i, j)(k, l) = (i, l), with an identity
    adjoined as element 0."""
    n = a * b + 1
    table = [list(range(n))]
    for p in range(a * b):
        i = p // b
        table.append([p + 1] + [i * b + q % b + 1 for q in range(a * b)])
    return table


def tables_of_order(n):
    return [
        monogenic_table(n // 3, n - n // 3),
        band_with_identity(*{255: (2, 127), 256: (15, 17), 257: (16, 16)}[n]),
    ]


@pytest.mark.parametrize("n", [255, 256, 257])
def test_light_kernels_agree_with_row_map_version(n):
    rng = random.Random(n)
    for table in tables_of_order(n):
        table = relabel(table, rng)
        gens = core._greedy_generators(table)
        rows = tuple(map(tuple, table))
        assert core._first_non_associative(rows, gens) is None and row_map_light_test(rows, gens)
        for _ in range(4):
            x, y = rng.randrange(1, n), rng.randrange(1, n)
            bad = mutated_group_table(table, x, y, rng.randrange(n))
            rows = tuple(map(tuple, bad))
            gens = core._greedy_generators(rows)
            assert (core._first_non_associative(rows, gens) is None) == row_map_light_test(rows, gens)
            some = rng.sample(range(n), 5)
            assert (core._first_non_associative(rows, some) is None) == row_map_light_test(rows, some)


@pytest.mark.parametrize("n", [257, 300])
def test_refusal_above_256_elements_names_the_first_bad_triple(n):
    rng = random.Random(n)
    table = mutated_group_table(cyclic_table(n), rng.randrange(1, n), rng.randrange(1, n), 0)
    table = relabel(table, rng)
    expected = first_bad_triple(table)
    assert expected is not None
    with pytest.raises(NotAssociative) as exc:
        FiniteMonoid(table)
    assert exc.value.triple == expected


def test_locating_a_fault_is_quadratic():
    # 256 elements, the bytes kernel; the first fault is (254, 254, 1):
    # (254*254)*1 = 255*1 = 255, the zero, but 254*(254*1) = 254*1 = 1
    table = [list(row) for row in fb.null_monoid(254).table]
    table[254][1] = 1
    n = len(table)
    counter = [0]
    rows = tuple(CountingRow(r, counter) for r in table)
    assert core._first_non_associative(rows, range(n)) == (254, 254, 1)
    assert counter[0] <= 2 * n * n  # the triple scan takes about n^3 = 16777216


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_monoids_are_the_full_scan_in_its_order(n):
    assert [H.table for H in small_monoids(n)] == brute_small_monoids(n)


def test_small_monoids_counts_to_order_five():
    # the labelled monoids of order n with identity 0; each yielded table
    # passed FiniteMonoid's own validation, and they come in strictly
    # increasing lexicographic order
    for n, count in zip(range(1, 6), (1, 2, 11, 156, 4122)):
        tables = [H.table for H in small_monoids(n)]
        assert len(tables) == count, n
        assert all(s < t for s, t in zip(tables, tables[1:])), n
