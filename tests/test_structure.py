"""The structure layer against the exhaustive scans it replaced: Light's
associativity test names the same first bad triple as the full triple scan,
the property battery gives the flags and witnesses of oracles.naive_battery,
and neither runs a triple loop on a group."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import factorbench as fb
from factorbench.core import FiniteMonoid
from factorbench.corpus import corpus_members
from factorbench.errors import NotAssociative
from oracles import associativity_triples, naive_battery
from test_random_monoids import INSTANCES


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
    monoids = sample_corpus + corpus_members(3)
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
        for flag in FLAGS:
            assert getattr(rep, flag) == (flag not in expected), (name, flag)


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
    def refuse(rows):
        raise AssertionError("the triple scan ran on an associative table")

    monkeypatch.setattr(fb.core, "_raise_first_non_associative", refuse)
    H = fb.gl(2, 3)
    n = H.size
    counter = [0]
    H.table = CountingRow((CountingRow(r, counter) for r in H.table), counter)
    rep = fb.property_battery(H)
    assert rep.group and rep.acyclic and rep.cancellative
    assert counter[0] <= 10 * n * n  # a triple scan takes at least n^3 = 110592

