"""Tests for the networked auditing front door."""

import pytest

from repro.core import ApplicationNode, ConfidentialAuditingService
from repro.core.remote import DlaQueryFrontdoor, RemoteAuditorClient
from repro.crypto import DeterministicRng
from repro.errors import AuditError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.net.simnet import SimNetwork


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

        from repro.aio import AsyncTcpCluster

        frontdoor = DlaQueryFrontdoor("fd", world)
        client = RemoteAuditorClient("aud", "fd", world)
        with AsyncTcpCluster(["fd", "aud"]) as cluster:
            cluster["fd"].set_handler(frontdoor.handle)
            cluster["aud"].set_handler(client.handle)
            request_id = client.send_query(cluster["aud"], "C1 > 30")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and request_id not in client.responses:
                time.sleep(0.02)
        response = client.result(request_id)
        assert response["kind"] == "result"
        assert len(response["report"].glsns) == 1
