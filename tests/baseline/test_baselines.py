"""Tests for the centralized and GMW baselines."""

import pytest

from repro.baseline.centralized import CentralizedAuditor
from repro.baseline.circuits import (
    Circuit,
    encode_inputs,
    equality_circuit,
    less_than_circuit,
)
from repro.baseline.gmw import GmwEvaluator
from repro.baseline.ot import ObliviousTransfer
from repro.crypto import DeterministicRng
from repro.errors import AuditError, ConfigurationError, ProtocolAbortError
from repro.logstore.records import LogRecord
from repro.logstore.schema import paper_table1_schema


class TestCentralized:
    @pytest.fixture()
    def auditor(self):
        auditor = CentralizedAuditor(paper_table1_schema())
        for record in [
            LogRecord(1, {"C1": 20, "protocl": "UDP", "Tid": "T1"}),
            LogRecord(2, {"C1": 45, "protocl": "TCP", "Tid": "T1"}),
            LogRecord(3, {"C1": 50, "protocl": "UDP", "Tid": "T2"}),
        ]:
            auditor.ingest(record)
        return auditor

    def test_execute(self, auditor):
        assert auditor.execute("C1 > 30") == [2, 3]
        assert auditor.execute("C1 > 30 and protocl = 'UDP'") == [3]
        assert auditor.execute("not (Tid = 'T1')") == [3]

    def test_aggregates(self, auditor):
        assert auditor.aggregate("sum", "C1") == 115
        assert auditor.aggregate("count", "C1", "protocl = 'UDP'") == 2
        assert auditor.aggregate("max", "C1") == 50
        assert auditor.aggregate("min", "C1") == 20

    def test_aggregate_empty(self, auditor):
        assert auditor.aggregate("max", "C1", "C1 > 1000") is None

    def test_unknown_aggregate(self, auditor):
        with pytest.raises(AuditError):
            auditor.aggregate("mode", "C1")

    def test_zero_confidentiality(self, auditor):
        assert auditor.store_confidentiality == 0.0

    def test_schema_enforced(self):
        auditor = CentralizedAuditor(paper_table1_schema())
        from repro.errors import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            auditor.ingest(LogRecord(1, {"ghost": 1}))


class TestCircuits:
    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_equality_exhaustive_small(self, bits):
        circuit = equality_circuit(bits)
        limit = 1 << bits
        step = max(1, limit // 8)
        for a in range(0, limit, step):
            for b in range(0, limit, step):
                out = circuit.evaluate_plain(encode_inputs(a, b, bits))
                assert out == [1 if a == b else 0], (a, b)

    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_less_than_exhaustive_small(self, bits):
        circuit = less_than_circuit(bits)
        limit = 1 << bits
        step = max(1, limit // 8)
        for a in range(0, limit, step):
            for b in range(0, limit, step):
                out = circuit.evaluate_plain(encode_inputs(a, b, bits))
                assert out == [1 if a < b else 0], (a, b)

    def test_and_count(self):
        assert equality_circuit(16).and_count == 15
        assert less_than_circuit(16).and_count == 48

    def test_or_gate(self):
        circuit = Circuit()
        a = circuit.input_bit("A")
        b = circuit.input_bit("B")
        circuit.mark_output(circuit.or_(a, b))
        for x in (0, 1):
            for y in (0, 1):
                assert circuit.evaluate_plain({"A": [x], "B": [y]}) == [x | y]

    def test_input_bounds(self):
        with pytest.raises(ConfigurationError):
            encode_inputs(256, 0, 8)
        with pytest.raises(ConfigurationError):
            encode_inputs(-1, 0, 8)

    def test_const_validation(self):
        with pytest.raises(ConfigurationError):
            Circuit().const(2)


class TestObliviousTransfer:
    @pytest.fixture(scope="class")
    def ot(self, schnorr_group):
        return ObliviousTransfer(schnorr_group, DeterministicRng(b"ot-tests"))

    def test_all_choices(self, ot):
        messages = [b"m0", b"m1", b"m2", b"m3"]
        for choice in range(4):
            plain, _, _ = ot.run(messages, choice)
            assert plain == messages[choice]

    def test_1_of_2(self, ot):
        plain, _, _ = ot.run([b"left", b"rght"], 1)
        assert plain == b"rght"

    def test_choice_out_of_range(self, ot):
        pins = ot.pin_points(2)
        with pytest.raises(ProtocolAbortError):
            ot.receiver_choose(pins, 5)

    def test_non_chosen_undecryptable(self, ot, schnorr_group):
        """Decrypting a non-chosen branch with the known key yields noise."""
        pins = ot.pin_points(2)
        request, secret = ot.receiver_choose(pins, 0)
        response = ot.sender_encrypt(request, [b"AAAA", b"BBBB"])
        correct = ot.receiver_decrypt(response, 0, secret)
        wrong = ot.receiver_decrypt(response, 1, secret)
        assert correct == b"AAAA" and wrong != b"BBBB"

    def test_message_count_mismatch(self, ot):
        pins = ot.pin_points(2)
        request, _ = ot.receiver_choose(pins, 0)
        with pytest.raises(ProtocolAbortError):
            ot.sender_encrypt(request, [b"only-one"])


class TestGmw:
    @pytest.fixture()
    def evaluator(self, schnorr_group):
        return GmwEvaluator(schnorr_group, DeterministicRng(b"gmw-tests"))

    @pytest.mark.parametrize(
        "a,b,expected", [(7, 7, 1), (7, 8, 0), (0, 0, 1), (255, 254, 0)]
    )
    def test_equality(self, evaluator, a, b, expected):
        out = evaluator.evaluate(equality_circuit(8), encode_inputs(a, b, 8))
        assert out == [expected]

    @pytest.mark.parametrize(
        "a,b,expected", [(3, 5, 1), (5, 3, 0), (9, 9, 0), (0, 1, 1)]
    )
    def test_less_than(self, evaluator, a, b, expected):
        out = evaluator.evaluate(less_than_circuit(8), encode_inputs(a, b, 8))
        assert out == [expected]

    def test_cost_tracks_and_gates(self, evaluator):
        circuit = equality_circuit(8)
        evaluator.evaluate(circuit, encode_inputs(1, 1, 8))
        assert evaluator.cost.ot_count == circuit.and_count
        assert evaluator.cost.modexp > 0
        assert evaluator.cost.messages > 2 * circuit.and_count

    def test_cost_dwarfs_relaxed_equality(self, evaluator, prime64):
        """The paper's headline: classical MPC ≫ relaxed primitives."""
        from repro.net.simnet import SimNetwork
        from repro.smc.base import SmcContext
        from repro.smc.equality import secure_equality

        evaluator.evaluate(equality_circuit(32), encode_inputs(5, 5, 32))
        gmw_messages = evaluator.cost.messages
        ctx = SmcContext(prime64, DeterministicRng(b"rel"))
        net = SimNetwork()
        secure_equality(ctx, ("A", 5), ("B", 5), net=net)
        assert gmw_messages > 10 * net.stats.messages

    def test_three_owner_circuit_rejected(self, evaluator):
        circuit = Circuit()
        circuit.input_bit("A")
        circuit.input_bit("C")
        circuit.mark_output(0)
        with pytest.raises(ProtocolAbortError):
            evaluator.evaluate(circuit, {"A": [1], "C": [0]})
