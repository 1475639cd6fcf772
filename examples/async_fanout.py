"""Fan-out: a burst of 256 audit queries over one shared deployment.

The scheduler behind `service.submit` (`repro.sched.QueryScheduler`)
runs each query of the burst before `submit` returns, in the calling
thread, and hands back a settled handle; equal queries at equal store
epochs are served the first one's result.  Every answer is verified against a serial `service.query`
ground truth.

Run:  python examples/async_fanout.py
"""

from repro import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema

QUERIES = [
    "C1 > C5 and C3 = 'bank'",
    "C3 = 'bank' or C3 = 'salary'",
    "C2 < 400 and C3 = 'salary'",
    "C1 > 30",
]
BURST = 256


def main() -> None:
    # 1. One deployment; a modest log so the example runs in seconds.
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"async-fanout"),
    )
    ticket = service.register_user("fanout")
    for i in range(32):
        service.log_event(
            {"Time": f"2004-02-{i % 28 + 1:02d}", "id": f"u{i % 5}", "EID": i,
             "Tid": f"t{i}", "protocl": "tcp", "ip": f"10.0.0.{i % 7}",
             "C": i % 3, "C1": (i * 13) % 100, "C2": (i * 29) % 1000,
             "C3": ["bank", "salary", "shop"][i % 3], "C4": i % 2, "C5": i},
            ticket,
        )

    # 2. Serial ground truth, one evaluation per distinct criterion.
    expected = {criterion: service.query(criterion).glsns for criterion in QUERIES}

    # 3. The burst: 256 queries submitted back to back.  Each runs in
    #    this thread inside its `submit`; `gather` only reads the handles.
    batch = (QUERIES * (BURST // len(QUERIES)))[:BURST]
    handles = [service.submit(criterion) for criterion in batch]
    print(f"submitted {len(handles)} queries "
          f"({type(service.scheduler).__name__})")
    results = service.gather(handles)

    # 4. Every scheduled answer matches its serial twin, query by query.
    for criterion, result in zip(batch, results):
        assert result.glsns == expected[criterion], criterion
    coalesced = sum(1 for h in handles if h.coalesced)
    print(f"all {len(results)} answers verified against the serial path")
    print(f"shared executions: {coalesced} of {BURST} queries coalesced "
          f"onto {BURST - coalesced} executed ones")

    # 5. Exact reconciliation survives the fan-out: each handle carries
    #    its own cost report and leakage slice.
    messages = sum(h.cost.messages for h in handles if h.cost)
    print(f"aggregate protocol traffic attributed per query: "
          f"{messages} messages")
    service.close()


if __name__ == "__main__":
    main()
