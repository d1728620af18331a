"""A fixed reference computation that measures the machine's speed.

On a shared host the speed moves in regimes that last from seconds to
minutes: the same op runs up to twice as slow in one minute as in the next.
The run interleaves this computation with the ops, so that it runs in the
same moments, and reports every time as `t * NOMINAL_S / r`, where r is the
median time of this computation over the run: seconds on a host where it
takes NOMINAL_S.  The computation is stdlib only and never changes, so a
change to khoval moves the ops and not the reference.

Its mix follows khoval's hot paths: sparse polynomials as dicts of
exponents, tuple-keyed generators, and integer elimination on small dense
matrices.
"""

from __future__ import annotations

import random
import time

# The scale of the reported times: about the reference's median on an idle
# vCPU of the 2-vCPU Xeon host the seed baseline was made on.
NOMINAL_S = 0.006

_RNG = random.Random(20050228)
_POLYS = [{_RNG.randrange(-12, 13): _RNG.randrange(-5, 6) or 1 for _ in range(6)} for _ in range(12)]
_MATRIX = [[_RNG.randrange(-3, 4) for _ in range(14)] for _ in range(14)]
_KEYS = [tuple(_RNG.randrange(4) for _ in range(8)) for _ in range(300)]


def _poly_products() -> int:
    total = 0
    for a in _POLYS:
        for b in _POLYS:
            terms: dict[int, int] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
            total += len({e: c for e, c in terms.items() if c})
    return total


def _eliminate(prime: int = 1_000_003) -> int:
    """Row reduction modulo a prime; returns the rank."""
    m = [[x % prime for x in row] for row in _MATRIX]
    rank, cols = 0, len(m[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = pow(m[rank][col], -1, prime)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inverse % prime
            if f:
                m[r] = [(x - f * y) % prime for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _generators() -> int:
    index: dict[tuple, int] = {}
    for key in _KEYS:
        for flip in range(len(key)):
            neighbour = key[:flip] + ((key[flip] + 1) % 4,) + key[flip + 1:]
            index[neighbour] = index.get(neighbour, 0) + 1
    return len(sorted(index.items()))


EXPECTED = (_poly_products(), _eliminate(), _generators())


def run_once() -> float:
    """Run the computation once; return its wall seconds."""
    t0 = time.perf_counter()
    result = (_poly_products(), _eliminate(), _generators())
    elapsed = time.perf_counter() - t0
    if result != EXPECTED:
        raise AssertionError(f"reference computation gave {result}, not {EXPECTED}")
    return elapsed
