"""Cryptographic substrate for the DLA reproduction.

Everything here is implemented from scratch over Python big integers:

* :mod:`repro.crypto.rng` — deterministic (seedable) and OS-entropy RNGs;
* :mod:`repro.crypto.primes` — Miller-Rabin, safe primes, RSA moduli;
* :mod:`repro.crypto.modmath` — inverses, Jacobi, subgroup generators;
* :mod:`repro.crypto.pohlig_hellman` — the commutative cipher of paper §3;
* :mod:`repro.crypto.shamir` — (k, n) secret sharing for secure sum (§3.5);
* :mod:`repro.crypto.accumulator` — one-way accumulator (§4.1 eq. 8-9);
* :mod:`repro.crypto.commitments` — Pedersen commitments (evidence binding);
* :mod:`repro.crypto.schnorr` / :mod:`repro.crypto.blind` — signatures and
  the blind variant behind anonymous e-coin evidence (§4.2);
* :mod:`repro.crypto.threshold` — threshold signatures on audit reports;
* :mod:`repro.crypto.tickets` — Kerberos-style access tickets (§4).

SECURITY NOTE: this is research code for protocol reproduction, not a
hardened cryptographic library; parameters default to sizes chosen for
test/benchmark speed.
"""

from repro.crypto.rng import DeterministicRng, SystemRng, system_rng
from repro.crypto.primes import (
    is_probable_prime,
    prime_above,
    random_prime,
    rsa_modulus,
    safe_prime,
)
from repro.crypto.pohlig_hellman import (
    CommutativeKey,
    MessageEncoder,
    PohligHellmanCipher,
    shared_prime,
)
from repro.crypto.shamir import ShamirScheme, Share
from repro.crypto.accumulator import (
    AccumulatorParams,
    OneWayAccumulator,
    digest_to_exponent,
)
from repro.crypto.commitments import Commitment, PedersenCommitter, PedersenParams
from repro.crypto.schnorr import (
    SchnorrGroup,
    SchnorrKeyPair,
    SchnorrSignature,
    SchnorrSigner,
)
from repro.crypto.blind import BlindingClient, BlindSigner
from repro.crypto.threshold import PartialSignature, ThresholdKeyShare, ThresholdScheme
from repro.crypto.tickets import Operation, Ticket, TicketAuthority

__all__ = [
    "DeterministicRng",
    "SystemRng",
    "system_rng",
    "is_probable_prime",
    "prime_above",
    "random_prime",
    "rsa_modulus",
    "safe_prime",
    "CommutativeKey",
    "MessageEncoder",
    "PohligHellmanCipher",
    "shared_prime",
    "ShamirScheme",
    "Share",
    "AccumulatorParams",
    "OneWayAccumulator",
    "digest_to_exponent",
    "Commitment",
    "PedersenCommitter",
    "PedersenParams",
    "SchnorrGroup",
    "SchnorrKeyPair",
    "SchnorrSignature",
    "SchnorrSigner",
    "BlindingClient",
    "BlindSigner",
    "PartialSignature",
    "ThresholdKeyShare",
    "ThresholdScheme",
    "Operation",
    "Ticket",
    "TicketAuthority",
]
