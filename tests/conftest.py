import os

import pytest

from eqhom.complexes import LocalSystem, build_cover, lens_space, load_complex_file
from eqhom.duality import Cocycle

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_fixture(name):
    return load_complex_file(fixture_path(name))


def unit_cocycle(cx):
    """The augmentation 0-cocycle with trivial Z coefficients (cup unit)."""
    return Cocycle(LocalSystem(cx, 1), 0, [1] * len(cx.simplices(0)))


@pytest.fixture(scope="session")
def t2():
    return load_fixture("t2.cplx")


@pytest.fixture(scope="session")
def t3():
    return load_fixture("t3.cplx")


@pytest.fixture(scope="session")
def s2cx():
    return load_fixture("s2.cplx")


@pytest.fixture(scope="session")
def s3cx():
    return load_fixture("s3.cplx")


@pytest.fixture(scope="session")
def rp2():
    return load_fixture("rp2.cplx")


@pytest.fixture(scope="session")
def rp3():
    return load_fixture("rp3.cplx")


@pytest.fixture(scope="session")
def rp2_cover(rp2):
    return build_cover(rp2)


@pytest.fixture(scope="session")
def rp3_cover(rp3):
    return build_cover(rp3)


@pytest.fixture(scope="session")
def lens3_cover():
    return build_cover(lens_space(3))


@pytest.fixture(scope="session")
def q8space():
    return load_fixture("q8space.cplx")


@pytest.fixture(scope="session")
def q8_cover(q8space):
    return build_cover(q8space)
