"""Exact computer algebra for ideal towers in module categories.

The package works with monic ideal inclusions j: I -> A over small
commutative coefficient rings, builds their truncation towers and adic
completions level by level, and checks the structural laws (pushout
product, cokernel/kernel adjunction, almost-isomorphism layers) by
explicit certified linear algebra.  Everything is exact: integers,
rationals, F_p, and univariate polynomial arithmetic, with no floats.

Entry points:

* :mod:`adic_smith.rings`    -- base rings and elements
* :mod:`adic_smith.linalg`   -- matrices, Smith/Hermite forms, solving
* :mod:`adic_smith.fpmod`    -- finitely presented modules and maps
* :mod:`adic_smith.arrowcat` -- arrows, pushout product, cok/ker
* :mod:`adic_smith.tower`    -- truncation towers and completion
* :mod:`adic_smith.monomial` -- multivariate monomial-ideal backend
* :mod:`adic_smith.almost`   -- almost-isomorphism layer
* :mod:`adic_smith.oracle`   -- independent brute-force recomputation
* :mod:`adic_smith.cli`      -- ``adic-smith`` command line tool
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
