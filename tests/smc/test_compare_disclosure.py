"""What the blind comparison TTP can compute, and that the ledger says it.

The batch comparison blinds both vectors with one shared map
``W = a·Y + b`` (no modular wrap, no jitter).  Every blinded difference is
then a multiple of ``a``, so the TTP's gcd of the differences is ``a`` and
``(W_i − W_0) / a`` is ``Y_i − Y_0``: it holds every compared value up to
one common offset.  This suite runs that attack against the real protocol
and requires the ledger entry to name the disclosure (ROADMAP item 3(i));
removing it is item 3(ii).
"""

from __future__ import annotations

from functools import reduce
from math import gcd

from repro.crypto import DeterministicRng, shared_prime
from repro.net.simnet import SimNetwork
from repro.smc import SmcContext, comparison, secure_compare, secure_compare_batch

PAIRS = 30
VALUE_BOUND = 10**6


def test_the_batch_ttp_recovers_every_value_up_to_one_offset(monkeypatch):
    received: dict[str, list[int]] = {}
    real_handle = comparison._BatchCompareTtp.handle

    def spying_handle(self, msg, transport):
        received[msg.src] = list(msg.payload["ws"])
        real_handle(self, msg, transport)

    monkeypatch.setattr(comparison._BatchCompareTtp, "handle", spying_handle)
    rng = DeterministicRng(b"gcd-attack")
    lvals = [rng.randrange(VALUE_BOUND + 1) for _ in range(PAIRS)]
    rvals = [rng.randrange(VALUE_BOUND + 1) for _ in range(PAIRS)]
    ctx = SmcContext(shared_prime(64), DeterministicRng(b"gcd-attack-ctx"))
    result = secure_compare_batch(
        ctx, ("A", lvals), ("B", rvals), value_bound=VALUE_BOUND, net=SimNetwork()
    )
    assert len(result.value_for("A")) == PAIRS

    # The TTP's view: the two blinded vectors, 60 values.
    blinded, values = received["A"] + received["B"], lvals + rvals
    slope = reduce(gcd, (w - blinded[0] for w in blinded[1:]))
    assert slope >= 2**16  # the map's slope, not a divisor of the values' spread
    assert [(w - blinded[0]) // slope for w in blinded] == [v - values[0] for v in values]

    (event,) = [e for e in ctx.leakage.events if e.observer == "ttp"]
    assert event.category == "order_statistics"
    assert "every compared value up to one common offset" in event.detail
    assert "gcd" in event.detail and "slope a" in event.detail


def test_a_single_comparison_ledgers_the_scaled_difference():
    ctx = SmcContext(shared_prime(64), DeterministicRng(b"one-pair"))
    secure_compare(ctx, ("A", 3), ("B", 9), net=SimNetwork())
    (event,) = [e for e in ctx.leakage.events if e.observer == "ttp"]
    assert "difference scaled by the map's slope a" in event.detail
