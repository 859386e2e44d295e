"""A fixed pure-Python kernel that measures how fast this machine runs
Python right now.

Shared machines drift in speed by tens of percent over seconds to minutes.
The benchmark times this kernel between cases and scales each case's wall
time by ``REFERENCE_S`` over the mean kernel time before and after it,
giving seconds at a fixed machine speed.  The kernel imports nothing from hbv, so a change
to the program cannot move it; it mixes the operations hbv spends its time
on: dict-row elimination over F_p, Fraction arithmetic, integer loops.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# the kernel's median time on the machine the baseline was measured on
REFERENCE_S = 0.017

_rng = random.Random(20080101)
_ROWS = [{_rng.randrange(120): _rng.randrange(1, 10007) for _ in range(6)}
         for _ in range(80)]


def _eliminate(p=10007):
    ech = {}
    for row in _ROWS:
        cur = dict(row)
        while cur:
            pc = max(cur)
            er = ech.get(pc)
            if er is None:
                inv = pow(cur[pc], -1, p)
                ech[pc] = {c: v * inv % p for c, v in cur.items()}
                break
            coef = cur.pop(pc)
            for c, v in er.items():
                if c != pc:
                    nv = (cur.get(c, 0) - coef * v) % p
                    if nv:
                        cur[c] = nv
                    else:
                        cur.pop(c, None)
    return len(ech)


def _fractions():
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return s


def _integers():
    s = 0
    for i in range(40000):
        s += i * i % 7
    return s


def kernel():
    _eliminate()
    _fractions()
    _integers()


def kernel_seconds():
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
