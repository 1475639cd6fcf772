"""Prime generation and primality testing.

The Pohlig-Hellman commutative cipher (paper §3) needs "a large prime p for
which p - 1 has a large prime factor" — i.e. a *safe prime* ``p = 2q + 1``
with ``q`` prime.  The one-way accumulator (§4.1) needs an RSA modulus
``n = p * q``.  Shamir sharing (§3.5) needs any prime larger than the values
being shared.  This module provides all three, plus Miller-Rabin testing.

Safe-prime generation is the most expensive operation in the whole library,
so :func:`safe_prime` keeps a small table of pre-verified safe primes at the
bit sizes used by tests and benchmarks; pass ``fresh=True`` to force a new
random one.
"""

from __future__ import annotations

from repro.crypto.rng import system_rng
from repro.errors import ParameterError

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349,
]

# Pre-verified safe primes (p = 2q+1, q prime), keyed by bit size.  Up to 512
# bits they were generated once with this very module under fresh=True and
# checked with 64 Miller-Rabin rounds; generating one of 1024+ bits takes
# minutes in pure Python, so those sizes are the standard MODP groups
# (2^n - 2^(n-64) - 1 + 2^64 * (floor(2^(n-130) * pi) + c)): RFC 2409 group 2
# and RFC 3526 group 14.  These keep test suites fast without weakening the
# protocol logic (the protocols are parametric in p).
_SAFE_PRIME_TABLE: dict[int, int] = {
    64: 14917292485657413179,
    128: 174158679509058713126999275137367365743,
    256: 111525767535012832528318988189880857310531517458634634927005609833870723312359,
    512: 7154908883566627705230758123451846792822839908235768415186991324913652223313848360422320280595170582502174993361480976845905031041058248705371177460279607,
    1024: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
        16,
    ),
    2048: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ),
}


def is_probable_prime(n: int, rounds: int = 40, rng=None) -> bool:
    """Miller-Rabin primality test.

    With ``rounds=40`` the error probability is below ``4**-40``; fixed small
    witnesses are additionally tried first so that small composites are
    rejected deterministically.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or system_rng()
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_finds_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                return False
        return True

    # Deterministic witnesses first (correct for all n < 3.3e24).
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a >= n - 1:
            break
        if witness_finds_composite(a):
            return False
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if witness_finds_composite(a):
            return False
    return True


def random_prime(bits: int, rng=None) -> int:
    """Return a random prime with exactly ``bits`` bits."""
    if bits < 2:
        raise ParameterError("a prime needs at least 2 bits")
    rng = rng or system_rng()
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


def safe_prime(bits: int, rng=None, fresh: bool = False) -> int:
    """Return a safe prime ``p = 2q + 1`` with ``p`` having ``bits`` bits.

    By default returns a pre-verified table entry when one exists for the
    requested size (fast, constant).  ``fresh=True`` generates a brand-new
    random safe prime, which may take seconds at 512 bits and minutes
    above that in pure Python.
    """
    if bits < 5:
        raise ParameterError("safe primes need at least 5 bits")
    if not fresh and bits in _SAFE_PRIME_TABLE:
        return _SAFE_PRIME_TABLE[bits]
    rng = rng or system_rng()
    while True:
        q = random_prime(bits - 1, rng=rng)
        p = 2 * q + 1
        if p.bit_length() == bits and is_probable_prime(p, rng=rng):
            return p


def rsa_modulus(bits: int, rng=None) -> tuple[int, int, int]:
    """Return ``(n, p, q)`` with ``n = p*q`` an RSA-style modulus of ``bits`` bits.

    Used by the one-way accumulator (paper §4.1 eq. 8): the accumulator
    trusts whoever generated ``n`` to discard the factorization, which in
    the DLA setting is the credential authority.
    """
    if bits < 16:
        raise ParameterError("RSA modulus needs at least 16 bits")
    rng = rng or system_rng()
    half = bits // 2
    while True:
        p = random_prime(half, rng=rng)
        q = random_prime(bits - half, rng=rng)
        if p != q and (p * q).bit_length() == bits:
            return p * q, p, q


def prime_above(lower: int, rng=None) -> int:
    """Return a prime strictly greater than ``lower``.

    Shamir-based secure sum needs ``p >> a_i`` (paper §3.5); callers pass
    the largest conceivable secret and get a field big enough to avoid
    wrap-around.
    """
    if lower < 2:
        return 2
    candidate = lower + 1
    candidate |= 1  # next odd at or above lower + 1
    while not is_probable_prime(candidate, rng=rng):
        candidate += 2
    return candidate
