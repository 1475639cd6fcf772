"""The pool manager's name, kept for the benchmark's tracer and readout."""


class PrecomputeManager:
    # Nothing under src/ calls these: benchmarks/e2e/layers.py:120-123
    # traces the first four as plain functions and workloads.py:201 reads
    # ``service.precompute.hit_rate()``.  The class goes when ROADMAP item
    # 1(b) lets the benchmark drop those rows.

    def warm_smc(self, *args, **kwargs) -> int:
        return 0

    def warm_blind(self, *args, **kwargs) -> int:
        return 0

    def warm_witness(self, *args, **kwargs) -> int:
        return 0

    def refill_low_pools(self) -> int:
        return 0

    def hit_rate(self) -> float:
        return 0.0
