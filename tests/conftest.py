import numpy as np
import pytest

from projcorr import DenseOperator


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def random_full_row_rank(rng, m, n, min_singular=0.3):
    """Random dense m x n operator with smallest singular value bounded away
    from zero, so it is genuinely full row rank."""
    assert m <= n
    for _ in range(1000):
        a = rng.standard_normal((m, n))
        if np.linalg.svd(a, compute_uv=False)[-1] >= min_singular:
            return DenseOperator(a)
    raise AssertionError("could not draw a well-conditioned full-row-rank matrix")


@pytest.fixture
def full_row_rank_factory(rng):
    def factory(m, n, min_singular=0.3):
        return random_full_row_rank(rng, m, n, min_singular)

    return factory


def make_oracle_reconstructor(engine):
    """Ideal reconstructor ``oracle(y, x_true)`` used as a test fixture.

    Given the true signal, returns the minimum-norm solution of the
    measurements plus the true signal's null-space component, i.e. the output
    an ideally-trained estimator would produce.  Applying the exact correction
    to this output leaves it unchanged.
    """

    def oracle(y, x_true) -> np.ndarray:
        return engine.pinv_apply(y) + engine.nullspace_projector_apply(x_true)

    return oracle
