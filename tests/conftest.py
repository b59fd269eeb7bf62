from fractions import Fraction

import pytest

from intervalzeta import fibmap

# regression constant: first computed by find_fib_lambda(12, 1e-10)
FIB_LAMBDA_FLOAT = 1.7292119317087213


@pytest.fixture(scope="session")
def fib_lambda_12() -> Fraction:
    result = fibmap.find_fib_lambda(12, Fraction(1, 10**10))
    assert abs(result.value - FIB_LAMBDA_FLOAT) < 2e-12
    return result.lam


@pytest.fixture(scope="session")
def fib_family_10(fib_lambda_12) -> fibmap.IntervalFamily:
    """`interval_families(fib_lambda_12, 10)`, built once: it takes seconds,
    and the tests that share it only read it."""
    return fibmap.interval_families(fib_lambda_12, 10)
