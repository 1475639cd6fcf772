"""Tests for Shamir secret sharing (paper §3.5)."""

import pytest

from repro.crypto.rng import DeterministicRng
from repro.crypto.shamir import ShamirScheme, Share
from repro.errors import ParameterError, SecretSharingError, ThresholdError

PRIME = 2_147_483_647  # 2^31 - 1


@pytest.fixture()
def scheme():
    return ShamirScheme(k=3, n=5, p=PRIME)


class TestConstruction:
    def test_invalid_threshold(self):
        with pytest.raises(ParameterError):
            ShamirScheme(k=0, n=5, p=PRIME)

    def test_n_below_k(self):
        with pytest.raises(ParameterError):
            ShamirScheme(k=4, n=3, p=PRIME)

    def test_field_too_small(self):
        with pytest.raises(ParameterError):
            ShamirScheme(k=2, n=7, p=7)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ParameterError):
            ShamirScheme(k=2, n=3, p=PRIME, xs=[1, 2, 1])

    def test_zero_point_rejected(self):
        with pytest.raises(ParameterError):
            ShamirScheme(k=2, n=3, p=PRIME, xs=[0, 1, 2])

    def test_custom_points(self, rng):
        scheme = ShamirScheme(k=2, n=3, p=PRIME, xs=[10, 20, 30])
        shares = scheme.share(777, rng)
        assert [s.x for s in shares] == [10, 20, 30]
        assert scheme.reconstruct(shares[:2]) == 777


class TestReconstruction:
    def test_exact_threshold(self, scheme, rng):
        shares = scheme.share(123456, rng)
        assert scheme.reconstruct(shares[:3]) == 123456

    def test_any_subset(self, scheme, rng):
        import itertools

        shares = scheme.share(98765, rng)
        for subset in itertools.combinations(shares, 3):
            assert scheme.reconstruct(list(subset)) == 98765

    def test_below_threshold_raises(self, scheme, rng):
        shares = scheme.share(5, rng)
        with pytest.raises(ThresholdError):
            scheme.reconstruct(shares[:2])

    def test_below_threshold_reveals_nothing(self, rng):
        """k-1 shares are consistent with ANY secret (perfect hiding)."""
        scheme = ShamirScheme(k=2, n=2, p=97)
        shares = scheme.share(42, rng)
        one_share = shares[0]
        # For every candidate secret there exists a polynomial through
        # (0, candidate) and the observed share.
        compatible = set()
        for candidate in range(97):
            slope = ((one_share.y - candidate) * pow(one_share.x, -1, 97)) % 97
            value_at_x = (candidate + slope * one_share.x) % 97
            if value_at_x == one_share.y:
                compatible.add(candidate)
        assert len(compatible) == 97

    def test_secret_reduced_mod_p(self, scheme, rng):
        shares = scheme.share(PRIME + 17, rng)
        assert scheme.reconstruct(shares[:3]) == 17

    def test_mixed_field_rejected(self, scheme, rng):
        shares = scheme.share(1, rng)
        alien = Share(x=shares[0].x, y=shares[0].y, p=101)
        with pytest.raises(SecretSharingError):
            scheme.reconstruct([alien] + shares[1:3])

    def test_duplicate_share_points_rejected(self, scheme, rng):
        shares = scheme.share(1, rng)
        with pytest.raises(SecretSharingError):
            scheme.reconstruct([shares[0], shares[0], shares[1]])


class TestHomomorphism:
    """The property the secure sum rides on: share-wise addition."""

    def test_share_addition(self, scheme, rng):
        a = scheme.share(100, rng)
        b = scheme.share(23, rng)
        summed = [Share(x.x, (x.y + y.y) % PRIME, PRIME) for x, y in zip(a, b)]
        assert scheme.reconstruct(summed[:3]) == 123

    def test_weighted_combination(self, scheme, rng):
        """Σ α_i·a_i via scaling then adding — §3.5's weighted sum core."""
        secrets = [5, 11]
        weights = [3, 10]
        vectors = [scheme.share(secret, rng) for secret in secrets]
        totals = [
            Share(col[0].x, sum(w * s.y for w, s in zip(weights, col)) % PRIME, PRIME)
            for col in zip(*vectors)
        ]
        assert scheme.reconstruct(totals[:3]) == 3 * 5 + 10 * 11
