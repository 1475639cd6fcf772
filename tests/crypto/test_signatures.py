"""Tests for Schnorr, blind, and threshold signatures plus commitments."""

import pytest

from repro.crypto.blind import BlindingClient, BlindSigner
from repro.crypto.commitments import PedersenCommitter, PedersenParams
from repro.crypto.rng import DeterministicRng
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    SchnorrSigner,
)
from repro.crypto.threshold import ThresholdScheme
from repro.errors import (
    ParameterError,
    ProtocolAbortError,
    ThresholdError,
)


@pytest.fixture()
def keypair(schnorr_group, rng):
    return SchnorrKeyPair.generate(schnorr_group, rng)


@pytest.fixture()
def signer(schnorr_group, rng):
    return SchnorrSigner(schnorr_group, rng)


class TestSchnorr:
    def test_sign_verify(self, keypair, signer):
        sig = signer.sign(keypair, b"audit report")
        assert signer.verify(keypair.y, b"audit report", sig)

    def test_wrong_message(self, keypair, signer):
        sig = signer.sign(keypair, b"m1")
        assert not signer.verify(keypair.y, b"m2", sig)

    def test_wrong_key(self, schnorr_group, keypair, signer, rng):
        other = SchnorrKeyPair.generate(schnorr_group, rng)
        sig = signer.sign(keypair, b"m")
        assert not signer.verify(other.y, b"m", sig)

    def test_tampered_signature(self, keypair, signer):
        sig = signer.sign(keypair, b"m")
        bad = SchnorrSignature(c=sig.c, s=(sig.s + 1) % signer.group.q)
        assert not signer.verify(keypair.y, b"m", bad)

    def test_out_of_range_rejected(self, keypair, signer):
        sig = SchnorrSignature(c=signer.group.q + 5, s=1)
        assert not signer.verify(keypair.y, b"m", sig)

    def test_signatures_randomized(self, keypair, signer):
        a = signer.sign(keypair, b"m")
        b = signer.sign(keypair, b"m")
        assert a != b  # fresh nonce each time


class TestBlind:
    def test_issue_and_verify(self, schnorr_group, keypair, signer, rng):
        blind_signer = BlindSigner(schnorr_group, keypair, rng)
        client = BlindingClient(schnorr_group, keypair.y, rng)
        session, r = blind_signer.start()
        c = client.challenge(r, b"anonymous token")
        sig = client.unblind(blind_signer.respond(session, c))
        assert signer.verify(keypair.y, b"anonymous token", sig)

    def test_unlinkability_ingredients(self, schnorr_group, keypair, rng):
        """The signer's view (R, c, s) shares no component with (c', s')."""
        blind_signer = BlindSigner(schnorr_group, keypair, rng)
        client = BlindingClient(schnorr_group, keypair.y, rng)
        session, r = blind_signer.start()
        c = client.challenge(r, b"msg")
        s = blind_signer.respond(session, c)
        sig = client.unblind(s)
        assert sig.c != c and sig.s != s

    def test_session_single_use(self, schnorr_group, keypair, rng):
        blind_signer = BlindSigner(schnorr_group, keypair, rng)
        session, r = blind_signer.start()
        client = BlindingClient(schnorr_group, keypair.y, rng)
        c = client.challenge(r, b"m")
        blind_signer.respond(session, c)
        with pytest.raises(ProtocolAbortError):
            blind_signer.respond(session, c)

    def test_unblind_requires_challenge(self, schnorr_group, keypair, rng):
        client = BlindingClient(schnorr_group, keypair.y, rng)
        with pytest.raises(ProtocolAbortError):
            client.unblind(42)


class TestThreshold:
    def test_k_of_n_signing(self, schnorr_group, rng):
        scheme = ThresholdScheme(schnorr_group, k=3, n=5)
        public_y, shares = scheme.deal(rng)
        sig = scheme.sign(shares[1:4], b"agreed digest", rng)
        assert scheme.verify(public_y, b"agreed digest", sig)

    def test_any_subset_signs(self, schnorr_group, rng):
        import itertools

        scheme = ThresholdScheme(schnorr_group, k=2, n=4)
        public_y, shares = scheme.deal(rng)
        for subset in itertools.combinations(shares, 2):
            sig = scheme.sign(list(subset), b"msg", rng)
            assert scheme.verify(public_y, b"msg", sig)

    def test_below_threshold(self, schnorr_group, rng):
        scheme = ThresholdScheme(schnorr_group, k=3, n=5)
        _, shares = scheme.deal(rng)
        with pytest.raises(ThresholdError):
            scheme.sign(shares[:2], b"msg", rng)

    def test_invalid_parameters(self, schnorr_group):
        with pytest.raises(ParameterError):
            ThresholdScheme(schnorr_group, k=0, n=3)
        with pytest.raises(ParameterError):
            ThresholdScheme(schnorr_group, k=4, n=3)

    def test_lagrange_duplicate_indices(self, schnorr_group):
        scheme = ThresholdScheme(schnorr_group, k=2, n=3)
        with pytest.raises(ParameterError):
            scheme.lagrange_at_zero([1, 1])

    def test_wrong_message_fails(self, schnorr_group, rng):
        scheme = ThresholdScheme(schnorr_group, k=2, n=3)
        public_y, shares = scheme.deal(rng)
        sig = scheme.sign(shares[:2], b"m1", rng)
        assert not scheme.verify(public_y, b"m2", sig)


class TestPedersen:
    @pytest.fixture(scope="class")
    def params(self):
        return PedersenParams.generate(128, DeterministicRng(b"ped"))

    def test_commit_open(self, params, rng):
        committer = PedersenCommitter(params, rng)
        commitment, opening = committer.commit(b"service terms")
        assert committer.verify(commitment, b"service terms", opening)

    def test_binding(self, params, rng):
        committer = PedersenCommitter(params, rng)
        commitment, opening = committer.commit(b"original")
        assert not committer.verify(commitment, b"altered", opening)

    def test_hiding(self, params, rng):
        """Same message, different blinding -> different commitment."""
        committer = PedersenCommitter(params, rng)
        c1, _ = committer.commit(b"m")
        c2, _ = committer.commit(b"m")
        assert c1.value != c2.value

    def test_int_messages(self, params, rng):
        committer = PedersenCommitter(params, rng)
        c, r = committer.commit(123)
        assert committer.verify(c, 123, r)
        assert not committer.verify(c, 124, r)
