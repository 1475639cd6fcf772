"""The repo's single end-to-end benchmark (see README.md in this directory).

Five closed-loop workloads drive ``ConfidentialAuditingService`` through its
public API at real security parameters, check every answer against a
plaintext oracle, and report a handful of end-to-end metrics; a separate
traced run wraps the layers' public entry points from the outside and
reports where the time went.  ``BENCHMARK.json`` at the repo root is the
machine-readable contract for the numbers printed here.
"""
