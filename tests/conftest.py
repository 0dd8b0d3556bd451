from fractions import Fraction

import pytest

from fockboundary import verify
from fockboundary.fock import WeightVector


@pytest.fixture(scope="session")
def w13():
    return WeightVector([Fraction(1, 3), Fraction(2, 3)])


@pytest.fixture(scope="session")
def w_half():
    return WeightVector([Fraction(1, 2), Fraction(1, 2)])


@pytest.fixture(scope="session")
def w3():
    return WeightVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])


@pytest.fixture(scope="session")
def multiplications_report():
    return verify.verify_multiplications(trials=200, seed=7)


@pytest.fixture(scope="session")
def quantize_report():
    return verify.verify_quantize(seed=7, unitaries_per_d=5, pairs=50, cut=6)
