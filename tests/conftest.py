import pytest

import factorbench as fb
from factorbench.power import build_reduced_power_monoid


@pytest.fixture(scope="session")
def n3():
    return fb.null_monoid(1)


@pytest.fixture(scope="session")
def t4():
    return fb.null_monoid(2)


@pytest.fixture(scope="session")
def h2():
    return fb.two_element_with_zero()


@pytest.fixture(scope="session")
def pow_c3():
    return build_reduced_power_monoid(fb.cyclic(3))


def _sample_corpus():
    n3 = fb.null_monoid(1)
    return [
        ("trivial", fb.trivial()),
        ("N3", n3),
        ("T4", fb.null_monoid(2)),
        ("H2", fb.two_element_with_zero()),
        ("C2", fb.cyclic(2)),
        ("C3", fb.cyclic(3)),
        ("C5", fb.cyclic(5)),
        ("N3xC2", fb.direct_product(n3, fb.cyclic(2))),
        ("P1(C2)", build_reduced_power_monoid(fb.cyclic(2))),
        ("P1(C3)", build_reduced_power_monoid(fb.cyclic(3))),
        ("P1(C4)", build_reduced_power_monoid(fb.cyclic(4))),
    ]


SAMPLE_CORPUS = _sample_corpus()


@pytest.fixture(scope="session")
def sample_corpus():
    return SAMPLE_CORPUS
