"""Exact-arithmetic oracles for the Fibonacci theory, at 50 digits with mpmath.

The F- and R-symbols are written here from the golden ratio and the
standard phases, and the equations are evaluated by direct enumeration in
mpmath: nothing of the package is used, so a residual that vanishes here
while the package's double-precision one does not is rounding.  Labels are
integers, 0 = e and 1 = tau.
"""

from __future__ import annotations

from itertools import product

import mpmath

DPS = 50


def _fuses(a: int, b: int, c: int) -> bool:
    """Whether ``c`` is a channel of ``a x b`` (tau x tau = e + tau)."""
    if a == 0 or b == 0:
        return c == a + b
    return True


def _symbols():
    """``(f, r)`` at the current precision: ``f(a, b, c, d, x, y) =
    [F^{abc}_d]_{x,y}`` and ``r(a, b, c) = R^{ab}_c``, zero where fusion
    forbids the entry."""
    phi = (1 + mpmath.sqrt(5)) / 2
    f_tau = [[1 / phi, 1 / mpmath.sqrt(phi)], [1 / mpmath.sqrt(phi), -1 / phi]]

    def f(a, b, c, d, x, y):
        if not (_fuses(a, b, x) and _fuses(x, c, d) and _fuses(b, c, y) and _fuses(a, y, d)):
            return mpmath.mpf(0)
        return f_tau[x][y] if (a, b, c, d) == (1, 1, 1, 1) else mpmath.mpf(1)

    def r(a, b, c):
        if not _fuses(a, b, c):
            return mpmath.mpf(0)
        if (a, b) != (1, 1):
            return mpmath.mpf(1)
        return mpmath.expj(-4 * mpmath.pi / 5) if c == 0 else mpmath.expj(3 * mpmath.pi / 5)

    return f, r


def fibonacci_f(a, b, c, d, x, y) -> complex:
    """One exact F-symbol entry, rounded to a Python complex."""
    with mpmath.workdps(DPS):
        return complex(_symbols()[0](a, b, c, d, x, y))


def fibonacci_pentagon_residual():
    """Largest violation of the pentagon equation
    ``[F^{abz}_e]_{xv} [F^{xcd}_e]_{uz}
    = sum_y [F^{abc}_u]_{xy} [F^{ayd}_e]_{uv} [F^{bcd}_v]_{yz}``
    over every index tuple, as an mpmath number."""
    with mpmath.workdps(DPS):
        f, _r = _symbols()
        worst = mpmath.mpf(0)
        for a, b, c, d, e, x, u, z, v in product(range(2), repeat=9):
            lhs = f(a, b, z, e, x, v) * f(x, c, d, e, u, z)
            rhs = mpmath.fsum(
                f(a, b, c, u, x, y) * f(a, y, d, e, u, v) * f(b, c, d, v, y, z) for y in range(2)
            )
            worst = max(worst, abs(lhs - rhs))
        return worst


def two_mode_states() -> list[tuple[int, int, int]]:
    """The states ``(a_1, a_2, c)`` of two Fibonacci modes fused to ``c``."""
    return [(a1, a2, c) for a1, a2, c in product(range(2), repeat=3) if _fuses(a1, a2, c)]


def two_mode_pair():
    """``(alpha_1, beta_1, alpha_2, beta_2)`` of the unnormalised pair on two
    modes, as mpmath matrices over :func:`two_mode_states`.

    On mode 1 the pair is ``sum w |e, b; b><tau, b; c|`` over the terms
    ``(b, c, w)``: alpha takes ``(e, tau, 1/sqrt 2)`` and ``(tau, e, 1)``,
    beta ``(e, tau, 1/sqrt 2)`` and ``(tau, tau, 1)``.  Mode 2 is mode 1
    conjugated by the counterclockwise exchange ``B |a, b; c> = R^{ab}_c
    |b, a; c>``: ``X_2 = B X_1 B^dagger``.
    """
    states = two_mode_states()
    where = {s: i for i, s in enumerate(states)}
    dim = len(states)
    with mpmath.workdps(DPS):
        _f, r = _symbols()
        half = 1 / mpmath.sqrt(2)

        def mode1(terms):
            op = mpmath.zeros(dim, dim)
            for b, c, w in terms:
                op[where[(0, b, b)], where[(1, b, c)]] = w
            return op

        braid = mpmath.zeros(dim, dim)
        for a, b, c in states:
            braid[where[(b, a, c)], where[(a, b, c)]] = r(a, b, c)
        alpha1 = mode1([(0, 1, half), (1, 0, 1)])
        beta1 = mode1([(0, 1, half), (1, 1, 1)])
        return (alpha1, beta1, braid * alpha1 * braid.H, braid * beta1 * braid.H)


def third_order_residual(alpha, beta):
    """Largest entry of ``alpha alpha^+ alpha - (alpha - beta alpha^+ alpha)``."""
    with mpmath.workdps(DPS):
        diff = alpha * alpha.H * alpha - (alpha - beta * alpha.H * alpha)
        return max(abs(diff[i, j]) for i in range(diff.rows) for j in range(diff.cols))
