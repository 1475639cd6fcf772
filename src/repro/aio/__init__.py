"""Second dotted names the end-to-end benchmark pins, and nothing else.

Nothing runs on an event loop: protocol drivers are plain functions, the
scheduler runs each query in its submitter's thread, and the socket transport is
:mod:`repro.net.tcp` (``docs/concurrency.md``).  What is left here exists
because ``benchmarks/e2e`` imports or traces it: this function and the
two alias modules :mod:`repro.aio.simnet` and :mod:`repro.aio.scheduler`.
"""

__all__ = ["aio_scheduler_enabled"]


def aio_scheduler_enabled() -> bool:
    """Always true: there is one scheduler.

    benchmarks/e2e/workloads.py:36 imports this name and calls it in
    every run's ``config()``; it goes when ROADMAP item 1(b) lets the
    benchmark drop that import.
    """
    return True
