import random

import pytest

from adic_smith.rings import GF, QQ, IntegerRing, PolyRing
from adic_smith.linalg import Matrix

ZZ = IntegerRing()


@pytest.fixture
def rng():
    return random.Random(20260823)


def poly_from_coeffs(ring, coeffs):
    """Payload of sum(coeffs[i] * gen^i), built with ring ops only."""
    acc = ring.zero
    for i, c in enumerate(coeffs):
        acc = ring.add(acc, ring.mul(ring.from_int(c), ring.pow(ring.gen, i)))
    return acc


def random_int_matrix(rng, m, n, bound=9):
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def random_poly_matrix(rng, ring, m, n, deg=2, coeff_bound=1):
    def entry():
        return poly_from_coeffs(
            ring, [rng.randint(0, coeff_bound) for _ in range(rng.randint(0, deg) + 1)]
        )

    return Matrix(ring, [[entry() for _ in range(n)] for _ in range(m)])


SMALL_RINGS = {
    "F2x": PolyRing(GF(2), "x"),
    "Qx": PolyRing(QQ, "x"),
}
