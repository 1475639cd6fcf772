"""Auditing the cluster over the network — real sockets, verified replies.

The auditor lives outside the cluster: it sends criteria to a DLA front
door over TCP and receives threshold-signed results it verifies locally.
A man-in-the-middle altering a result breaks the signature check.

Run:  python examples/remote_auditing.py
"""

import time

from repro import ApplicationNode, ConfidentialAuditingService
from repro.core.remote import DlaQueryFrontdoor, RemoteAuditorClient
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.aio import AsyncTcpCluster
from repro.workloads import paper_table1_rows


def wait_for(client, request_ids, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(r in client.responses for r in request_ids):
            return True
        time.sleep(0.02)
    return False


def main() -> None:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=128,
        rng=DeterministicRng(b"remote-example"),
    )
    writer = ApplicationNode.register("U1", service)
    for row in paper_table1_rows():
        service.log_event(row, writer.ticket)
    print(f"cluster loaded with {len(service.store.glsns)} records; "
          f"cluster public key {format(service.cluster_public_key, 'x')[:16]}…")

    frontdoor = DlaQueryFrontdoor("dla-frontdoor", service)
    client = RemoteAuditorClient("remote-auditor", "dla-frontdoor", service)

    with AsyncTcpCluster(["dla-frontdoor", "remote-auditor"]) as cluster:
        cluster["dla-frontdoor"].set_handler(frontdoor.handle)
        cluster["remote-auditor"].set_handler(client.handle)
        transport = cluster["remote-auditor"]

        print("\n--- pipelined remote requests over TCP ---")
        r1 = client.send_query(transport, "C1 > 30 and protocl = 'UDP'")
        r2 = client.send_query(transport, "Tid = 'T1100265'")
        r3 = client.send_aggregate(transport, "sum", "C1")
        r4 = client.send_aggregate(transport, "max", "C2", "protocl = 'TCP'")
        r5 = client.send_query(transport, "nonsense =")  # deliberately bad
        assert wait_for(client, [r1, r2, r3, r4, r5])

        report = client.result(r1)["report"]
        print(f"  query 1: {len(report.glsns)} records, signature verified "
              f"locally against the cluster key")
        print(f"  query 2: {len(client.result(r2)['report'].glsns)} records "
              f"for T1100265")
        print(f"  sum C1 = {client.result(r3)['value']}")
        print(f"  max C2 over TCP = {client.result(r4)['value']}")
        error = client.result(r5)
        print(f"  malformed criterion answered gracefully: "
              f"{error['kind']} ({error['error'][:40]}…)")

    print(f"\nfrontdoor served {frontdoor.served} requests; every result "
          "carried a 3-of-4 threshold signature the client checked itself")


if __name__ == "__main__":
    main()
