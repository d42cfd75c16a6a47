"""Algebraic substrate: a Schnorr group and a prime field.

All public-key machinery in SpaceCore (Algorithm 2's Diffie-Hellman,
the home's state signatures, the ABE secret sharing) runs over two
deterministic structures:

* ``SCHNORR_GROUP``: a 512-bit safe-prime group (p = 2q + 1) with a
  generator of prime order q.  512 bits keeps the pure-Python modular
  exponentiation fast enough for the latency micro-benchmarks while
  preserving the real protocol structure.  The constants were produced
  once by a seeded Miller-Rabin search (seed 20220822, the paper's
  conference date) and are fixed here.  Powers of the generator come
  from a fixed-base table of 8-bit windows, and subgroup membership is
  Euler's criterion evaluated as a Jacobi symbol; both return exactly
  what ``pow`` does.
* ``SHARE_FIELD``: the prime field F_q over the Mersenne prime
  2^521 - 1, used for Shamir secret sharing in the ABE scheme.

This is a *reproduction-grade* parameterisation: the algebra and the
protocol flows are real, the key sizes are scaled for simulation.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: 512-bit safe prime p = 2q + 1.
_P = int(
    "0x8388e403a7ff7aa89fb163fb9197d703770381138e3e00acc26922bb0636cc5b"
    "2231676e54ee6e18a118b26ee875b9dcd37382fdf22d336c9c80185fb6af9cd3", 16)
#: The 511-bit prime group order q = (p - 1) / 2.
_Q = int(
    "0x41c47201d3ffbd544fd8b1fdc8cbeb81bb81c089c71f00566134915d831b662d"
    "9118b3b72a77370c508c5937743adcee69b9c17ef91699b64e400c2fdb57ce69", 16)
_G = 4

#: Fixed-base tables of generator powers, keyed by ``(g, p)``: row i
#: holds ``g^(j * 256^i) mod p`` for j in 0..255.  Kept at module level,
#: not on the frozen group, so pickled groups and keys stay small.
_GENERATOR_TABLES: Dict[Tuple[int, int], List[List[int]]] = {}


def _generator_table(g: int, p: int) -> List[List[int]]:
    """The 8-bit-window table of ``g`` mod ``p``, built once per process.

    It has one row per byte of ``p`` (64 x 256 entries for a 512-bit
    group, about 28 ms and 1.8 MB).
    """
    table = _GENERATOR_TABLES.get((g, p))
    if table is None:
        table = []
        base = g % p
        for _ in range((p.bit_length() + 7) // 8):
            row = [1] * 256
            acc = 1
            for j in range(1, 256):
                acc = acc * base % p
                row[j] = acc
            table.append(row)
            base = acc * base % p
        _GENERATOR_TABLES[(g, p)] = table
    return table


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd positive ``n``."""
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


@dataclass(frozen=True)
class SchnorrGroup:
    """A multiplicative group of prime order q inside Z_p^*."""

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        # is_element relies on the order-q subgroup being exactly the
        # quadratic residues, which holds for a safe prime.
        if self.p != 2 * self.q + 1:
            raise ValueError("SchnorrGroup needs a safe prime p = 2q + 1")

    def random_scalar(self, rng=None) -> int:
        """A uniform nonzero exponent modulo q."""
        if rng is not None:
            return rng.randrange(1, self.q)
        return secrets.randbelow(self.q - 1) + 1

    def power(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p``."""
        return pow(base, exponent, self.p)

    def generate(self, exponent: int) -> int:
        """g^exponent mod p: one table multiplication per nonzero byte
        of the exponent; exponents outside the table fall back to
        ``pow``."""
        table = _generator_table(self.g, self.p)
        if not 0 <= exponent < 1 << (8 * len(table)):
            return pow(self.g, exponent, self.p)
        p = self.p
        acc = 1
        for row, byte in zip(table, exponent.to_bytes(len(table), "little")):
            if byte:
                acc = acc * row[byte] % p
        return acc

    def is_element(self, x: int) -> bool:
        """Membership test for the order-q subgroup.

        With p = 2q + 1 the subgroup is the set of quadratic residues,
        so Euler's criterion ``x^q == 1 (mod p)`` equals the Jacobi
        symbol test below, without an exponentiation.
        """
        return 0 < x < self.p and _jacobi(x, self.p) == 1

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings into an exponent (Fiat-Shamir)."""
        digest = hashlib.sha512()
        for part in parts:
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
        return int.from_bytes(digest.digest(), "big") % self.q

    def element_bytes(self, x: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        return x.to_bytes((self.p.bit_length() + 7) // 8, "big")


SCHNORR_GROUP = SchnorrGroup(p=_P, q=_Q, g=_G)


def is_probable_prime(n: int, rounds: int = 40,
                      rng=None) -> bool:
    """Miller-Rabin primality test (deterministic enough at 40 rounds).

    Used by the test suite to verify the hard-coded group constants;
    exposed because downstream users regenerating parameters need it.
    """
    import random as _random
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    rng = rng or _random.Random(0xC0FFEE)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

#: Mersenne prime 2^127 - 1: the Shamir share field for ABE.  A 127-bit
#: field keeps Lagrange interpolation in the tens of microseconds --
#: the Fig. 18a regime -- while preserving the scheme's structure.
SHARE_PRIME = (1 << 127) - 1


class ShareField:
    """Arithmetic helpers over F_(2^127 - 1)."""

    prime = SHARE_PRIME

    @classmethod
    def random(cls, rng=None) -> int:
        if rng is not None:
            return rng.randrange(cls.prime)
        return secrets.randbelow(cls.prime)

    @classmethod
    def add(cls, a: int, b: int) -> int:
        return (a + b) % cls.prime

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        return (a * b) % cls.prime

    @classmethod
    def inv(cls, a: int) -> int:
        if a % cls.prime == 0:
            raise ZeroDivisionError("no inverse of zero")
        return pow(a, -1, cls.prime)

    @classmethod
    def eval_poly(cls, coefficients, x: int) -> int:
        """Horner evaluation of a polynomial with ``coefficients[0]``
        the constant term."""
        acc = 0
        for coeff in reversed(coefficients):
            acc = (acc * x + coeff) % cls.prime
        return acc

    @classmethod
    def lagrange_at_zero(cls, points) -> int:
        """Interpolate ``points = [(x, y), ...]`` and evaluate at 0."""
        total = 0
        for i, (xi, yi) in enumerate(points):
            num, den = 1, 1
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                num = num * (-xj) % cls.prime
                den = den * (xi - xj) % cls.prime
            total = (total + yi * num * cls.inv(den)) % cls.prime
        return total
