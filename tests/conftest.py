import pytest

from commlat import corpus
from commlat.lattice import FiniteLattice
from families import N5


@pytest.fixture
def b2():
    return corpus.chain(2)


@pytest.fixture
def b22():
    return corpus.boolean(2)


@pytest.fixture
def m3():
    return corpus.diamond()


@pytest.fixture
def n5():
    return FiniteLattice(*N5)


@pytest.fixture
def chain3():
    return corpus.chain(3)


@pytest.fixture(scope="session")
def all5():
    return corpus.generate_corpus(5)


@pytest.fixture(scope="session")
def all6():
    return corpus.generate_corpus(6)


@pytest.fixture(scope="session")
def all7():
    return corpus.generate_corpus(7)


@pytest.fixture(scope="session")
def all8():
    return corpus.generate_corpus(8)


@pytest.fixture(scope="session")
def modular5():
    return corpus.generate_corpus(5, modular_only=True)


@pytest.fixture(scope="session")
def modular6():
    return corpus.generate_corpus(6, modular_only=True)


@pytest.fixture(scope="session")
def modular7():
    return corpus.generate_corpus(7, modular_only=True)


@pytest.fixture(scope="session")
def modular8():
    return corpus.generate_corpus(8, modular_only=True)
