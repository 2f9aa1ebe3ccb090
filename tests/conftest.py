import os
import subprocess
import sys
from pathlib import Path

import pytest

import factorbench as fb
from factorbench.power import build_reduced_power_monoid

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, **env):
    """Run the interpreter on args, with this checkout's src/ first on
    PYTHONPATH and env's variables added, so that a subprocess imports the
    package under test whether or not it is installed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=300,
    )


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
