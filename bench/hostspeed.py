"""How fast the host runs Python right now, measured by a fixed reference task.

The benchmark runs on a shared virtual machine whose speed drifts by up to
1.5x over tens of seconds: the same pass of the same commands takes 5 s in
one minute and 7 s in the next, and CPU time moves with wall time.  Whole
30-second runs land in fast or slow spells, so runs of the same code spread
by 20-30%.

`sample()` times one fixed task that never touches lexval: rational
arithmetic, Euclid's algorithm on polynomials with `Fraction` coefficients,
dictionary updates and integer arithmetic, the kinds of work lexval does.
The benchmark takes a sample before and after every command.  A command's
time, divided by the mean of the two samples around it and multiplied by
`REFERENCE_S`, is the time it would have taken at the reference speed.  Nothing a change to lexval does can alter the reference
task, so a faster lexval still shows in full.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# The reference task's time at the speed the adjusted times are expressed
# in: about its median on the reference host (2 shared vCPUs, Python 3.11.7).
REFERENCE_S = 0.008


def _rational_walk() -> None:
    a = Fraction(1, 3)
    for i in range(1, 250):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, i)


def _small_fractions() -> None:
    s = Fraction(0)
    for i in range(1, 60):
        for j in (3, 5, 7, 11):
            s = (s + Fraction(i, j)) * Fraction(j, i + j)
            if s.denominator > 10**12:
                s = Fraction(s.numerator % 97, 1 + s.denominator % 89)


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        c, k = a[-1] / b[-1], len(a) - len(b)
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_euclid() -> None:
    for seed in range(3):
        a = [Fraction((i * 7 + seed) % 11 - 5) for i in range(8)] + [Fraction(1)]
        b = [Fraction((i * 5 + seed) % 9 - 4) for i in range(6)] + [Fraction(2)]
        while b:
            a, b = b, _poly_rem(a, b)


def _dict_and_ints() -> None:
    d: dict[int, int] = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i
    s = 0
    for i in range(20000):
        s += i * i % 7


def sample() -> float:
    """Seconds the reference task takes now, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _rational_walk()
        _small_fractions()
        _poly_euclid()
        _dict_and_ints()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
