"""Seeded inputs for the benchmark workloads.

The same seed always gives the same inputs.  The program under test only
ever sees the generated values, never the seed.

curve-arith j-invariants are built as j = 1728 + s*p*q with s small and
smooth and p, q primes in [10^9, 2*10^9), so the discriminant square class
of j needs Brent's rho for both large primes.  Two further conditions keep
the work per j the same from seed to seed:

* p is taken from the primes whose rho walk (x -> x^2 + 1 from 2, Brent's
  doubling windows, gcd every 128 steps) stops in the window of length
  2^14, and q from those stopping in the window of length 2^15, so p is
  always split off first and each split costs about the same;
* the part of j itself above 10^6 is 1 or a prime, so factoring the
  2-division discriminant (which contains j^2) never needs a rho walk
  whose length depends on j.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("registry", "subgroup-oracle", "curve-arith")

SUBGROUP_CASES = ((5, 3), (7, 3), (11, 2))
COMPLETENESS_MODULI = (5, 7)
SOUNDNESS_MODULI = (5, 7, 11)

J_COUNT = 6
SAMPLE_BOUND = 10 ** 4
SURJECTIVITY_MODULI = (11, 13, 17, 19)
LARGE_Q_COUNT = 4
TORSION_CURVES = ("X0(11)", "X0(14)", "X0(20)")
TORSION_MODULI = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

_PRIME_RANGE = (10 ** 9, 2 * 10 ** 9)
_P_WINDOW = (3 * 2 ** 14, 4 * 2 ** 14)   # rho stops in the 2^14 window
_Q_WINDOW = (3 * 2 ** 15, 4 * 2 ** 15)   # rho stops in the 2^15 window
_SMOOTH = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 30)
_SQUARES = (1, 4, 9, 25)
_TRIAL_LIMIT = 10 ** 6


def _rho_steps(p: int, cap: int) -> int | None:
    """Steps of Brent's rho (x^2 + 1 from 2, gcd per batch of 128) to reach p."""
    y, cycle, steps = 2, 1, 0
    while steps < cap:
        x = y
        for _ in range(cycle):
            y = (y * y + 1) % p
        steps += cycle
        done = 0
        while done < cycle:
            batch = min(128, cycle - done)
            hit = False
            for _ in range(batch):
                y = (y * y + 1) % p
                hit = hit or y == x
            steps += batch
            done += batch
            if hit:
                return steps
        cycle *= 2
    return None


def _prime_in_window(rng: random.Random, window: tuple[int, int]) -> int:
    import sympy
    while True:
        p = int(sympy.nextprime(rng.randrange(*_PRIME_RANGE)))
        steps = _rho_steps(p, window[1])
        if steps is not None and window[0] <= steps < window[1]:
            return p


def _large_part(n: int, small_primes) -> int:
    n = abs(n)
    for p in small_primes:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
    return n


def _curve_arith(rng: random.Random) -> dict:
    import sympy
    small_primes = list(sympy.sieve.primerange(2, _TRIAL_LIMIT))
    js = []
    while len(js) < J_COUNT:
        p = _prime_in_window(rng, _P_WINDOW)
        q = _prime_in_window(rng, _Q_WINDOW)
        for _ in range(200):
            s = rng.choice((-1, 1)) * rng.choice(_SMOOTH) * rng.choice(_SQUARES)
            j = 1728 + s * p * q
            rest = _large_part(j, small_primes)
            if rest == 1 or (rest > _TRIAL_LIMIT and sympy.isprime(rest)):
                js.append(j)
                break
    # one q from each equal slice of (5*10^5, 10^6), so the largest scan,
    # which sets the peak memory, is about the same size for every seed
    large_q = []
    width = 500_000 // LARGE_Q_COUNT
    for i in range(LARGE_Q_COUNT):
        while True:
            q = int(sympy.prevprime(500_000 + (i + 1) * width - rng.randrange(width // 2)))
            index = rng.randrange(J_COUNT)
            j = js[index]
            if j % q and (1728 - j) % q:
                large_q.append([index, q])
                break
    torsion = [[label, rng.choice(TORSION_MODULI)] for label in TORSION_CURVES]
    return {
        "js": [str(j) for j in js],
        "sample_bound": SAMPLE_BOUND,
        "moduli": list(SURJECTIVITY_MODULI),
        "large_q": large_q,
        "torsion": torsion,
    }


def _random_gl2(rng: random.Random, r: int) -> list[int]:
    while True:
        m = [rng.randrange(r) for _ in range(4)]
        if (m[0] * m[3] - m[1] * m[2]) % r:
            return m


def _subgroup_oracle(rng: random.Random) -> dict:
    return {
        "cases": [list(c) for c in SUBGROUP_CASES],
        "soundness": list(SOUNDNESS_MODULI),
        "conjugators": {str(r): _random_gl2(rng, r) for r in COMPLETENESS_MODULI},
    }


def generate(workload: str, seed: int) -> dict:
    """Inputs for one workload; the registry is frozen, so its seed is unused."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "registry":
        return {}
    if workload == "subgroup-oracle":
        return _subgroup_oracle(rng)
    if workload == "curve-arith":
        return _curve_arith(rng)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
