"""The ∪ₛ reversible encoding hides each plaintext's quadratic character.

A relay that holds no key can still compute the Jacobi symbol of every
ciphertext it forwards, and an odd exponent preserves it, so the encoding
must make that symbol the same for every plaintext.
"""

from repro.crypto.modmath import jacobi
from repro.crypto.pohlig_hellman import MessageEncoder
from repro.net.simnet import SimNetwork
from repro.smc.union_ import secure_set_union


def test_every_encoding_is_a_residue_and_decodes(prime64):
    encoder = MessageEncoder(prime64)
    for value in [*range(200), prime64 // 4 - 1]:
        element = encoder.encode_int(value)
        assert jacobi(element, prime64) == 1
        assert encoder.decode_int(element) == value


def test_every_union_ciphertext_a_relay_sees_has_jacobi_symbol_one(ctx):
    sets = {"A": list(range(0, 60, 2)), "B": list(range(0, 60, 3)), "C": [5, 7, 59]}
    net = SimNetwork()
    net.keep_delivery_log = True
    result = secure_set_union(ctx, sets, net=net)
    assert result.any_value == sorted(set().union(*sets.values()))
    seen = [
        element
        for msg in net._delivered_log
        if msg.kind in ("ssu.relay", "ssu.full", "ssu.decrypt")
        for element in msg.payload["elements"]
    ]
    assert seen
    assert {jacobi(element, ctx.prime) for element in seen} == {1}
