"""Tests for the networked auditing front door."""

import pytest

from repro.core import ApplicationNode, ConfidentialAuditingService
from repro.core.remote import DlaQueryFrontdoor, RemoteAuditorClient
from repro.crypto import DeterministicRng
from repro.errors import AuditError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.workloads import paper_table1_rows


@pytest.fixture(scope="module")
def world():
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"remote"),
    )
    node = ApplicationNode.register("U1", service)
    node.log_values({"Tid": "T1", "C1": 10, "protocl": "UDP"})
    node.log_values({"Tid": "T2", "C1": 50, "protocl": "TCP"})
    return service


@pytest.fixture(scope="module")
def table1():
    """A service holding the paper's Table 1, whose C3 is free text."""
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"remote-table1"),
    )
    nodes = {}
    for row in paper_table1_rows():
        if row["id"] not in nodes:
            nodes[row["id"]] = ApplicationNode.register(row["id"], service)
        nodes[row["id"]].log_values(row)
    return service


@pytest.fixture()
def wired(world):
    net = SimNetwork()
    frontdoor = DlaQueryFrontdoor("P0-frontdoor", world)
    client = RemoteAuditorClient("auditor", "P0-frontdoor", world)
    net.register("P0-frontdoor", frontdoor.handle)
    net.register("auditor", client.handle)
    return net, frontdoor, client


class TestRemoteQueries:
    def test_signed_query_roundtrip(self, wired):
        net, frontdoor, client = wired
        request_id = client.send_query(net, "C1 > 30")
        net.run()
        response = client.result(request_id)
        assert response["kind"] == "result"
        assert len(response["report"].glsns) == 1
        assert frontdoor.served == 1

    def test_pipelined_requests(self, wired):
        net, _, client = wired
        r1 = client.send_query(net, "protocl = 'UDP'")
        r2 = client.send_query(net, "protocl = 'TCP'")
        r3 = client.send_aggregate(net, "sum", "C1")
        net.run()
        assert len(client.result(r1)["report"].glsns) == 1
        assert len(client.result(r2)["report"].glsns) == 1
        assert client.result(r3)["value"] == 60

    def test_aggregate_with_criterion(self, wired):
        net, _, client = wired
        request_id = client.send_aggregate(net, "count", "C1", "C1 > 30")
        net.run()
        assert client.result(request_id)["value"] == 1

    def test_error_response(self, wired):
        net, _, client = wired
        request_id = client.send_query(net, "ghost = 1")
        net.run()
        response = client.result(request_id)
        assert response["kind"] == "error"
        assert "ghost" in response["error"]

    @pytest.mark.parametrize("kind", ["query", "aggregate"])
    def test_bug_in_the_service_is_not_answered_as_audit_error(
        self, wired, monkeypatch, kind
    ):
        """Only typed repro errors become ``audit.error``; a bug propagates."""
        net, frontdoor, client = wired

        def broken(*_args, **_kwargs):
            raise TypeError("bug in the service")

        method = "audited_query" if kind == "query" else "aggregate"
        monkeypatch.setattr(frontdoor.service, method, broken)
        if kind == "query":
            request_id = client.send_query(net, "C1 > 30")
        else:
            request_id = client.send_aggregate(net, "sum", "C1")
        with pytest.raises(TypeError, match="bug in the service"):
            net.run()
        assert request_id not in client.responses

    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    def test_aggregate_over_text_is_answered_as_error(self, table1, op):
        """A well-formed request over a non-numeric column is the client's
        error: answered as ``audit.error``, and the front door keeps serving."""
        net = SimNetwork()
        frontdoor = DlaQueryFrontdoor("fd", table1)
        client = RemoteAuditorClient("aud", "fd", table1)
        net.register("fd", frontdoor.handle)
        net.register("aud", client.handle)
        bad = client.send_aggregate(net, op, "C3")
        good = client.send_aggregate(net, "sum", "C1")
        net.run()
        response = client.result(bad)
        assert response["kind"] == "error"
        assert "C3" in response["error"] and "numeric" in response["error"]
        assert client.result(good)["value"] == 20 + 34 + 45 + 18 + 53

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("audit.query", {"request_id": "r", "criterion": 5}),
            ("audit.query", {"request_id": "r"}),
            ("audit.aggregate", {"request_id": "r", "op": "sum", "attribute": ["C1"]}),
            ("audit.aggregate", {"request_id": "r", "op": None, "attribute": "C1"}),
            ("audit.aggregate",
             {"request_id": "r", "op": "sum", "attribute": "C1", "criterion": 3}),
        ],
    )
    def test_mistyped_request_fields_are_answered_as_error(
        self, wired, kind, payload
    ):
        net, frontdoor, client = wired
        net.send(Message(src="auditor", dst="P0-frontdoor", kind=kind, payload=payload))
        net.run()
        response = client.result("r")
        assert response["kind"] == "error"
        assert "must be a string" in response["error"]
        assert frontdoor.served == 0

    def test_missing_response(self, wired):
        _, _, client = wired
        with pytest.raises(AuditError):
            client.result("never-sent")

    def test_forged_response_rejected(self, world):
        """A man-in-the-middle altering glsns breaks verification."""
        net = SimNetwork()
        frontdoor = DlaQueryFrontdoor("fd", world)
        client = RemoteAuditorClient("aud", "fd", world)

        def tampering_relay(msg, transport):
            # Deliver to the client with one glsn dropped.
            if msg.kind == "audit.result" and msg.payload["glsns"]:
                msg.payload["glsns"] = msg.payload["glsns"][:-1]
            client.handle(msg, transport)

        net.register("fd", frontdoor.handle)
        net.register("aud", tampering_relay)
        client.send_query(net, "protocl = 'UDP'")
        with pytest.raises(AuditError):
            net.run()


class TestRemoteOverTcp:
    def test_tcp_roundtrip(self, world):
        import time

        from repro.net.tcp import TcpCluster

        frontdoor = DlaQueryFrontdoor("fd", world)
        client = RemoteAuditorClient("aud", "fd", world)
        with TcpCluster(["fd", "aud"]) as cluster:
            cluster["fd"].set_handler(frontdoor.handle)
            cluster["aud"].set_handler(client.handle)
            request_id = client.send_query(cluster["aud"], "C1 > 30")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and request_id not in client.responses:
                time.sleep(0.02)
        response = client.result(request_id)
        assert response["kind"] == "result"
        assert len(response["report"].glsns) == 1

    def test_tcp_aggregate_over_text_keeps_the_connection(self, table1):
        """``sum`` over Table 1's C3 is answered as ``audit.error`` over TCP,
        and the same connection then answers the next request."""
        import time

        from repro.net.tcp import TcpCluster

        frontdoor = DlaQueryFrontdoor("fd", table1)
        client = RemoteAuditorClient("aud", "fd", table1)
        with TcpCluster(["fd", "aud"]) as cluster:
            cluster["fd"].set_handler(frontdoor.handle)
            cluster["aud"].set_handler(client.handle)
            bad = client.send_aggregate(cluster["aud"], "sum", "C3")
            good = client.send_aggregate(cluster["aud"], "count", "C1")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not (
                {bad, good} <= client.responses.keys()
            ):
                time.sleep(0.02)
        assert client.result(bad)["kind"] == "error"
        assert "C3" in client.result(bad)["error"]
        assert client.result(good)["value"] == 5
