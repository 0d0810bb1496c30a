"""Scalar reference implementations: the differential-test oracle.

Every production layer of this repo runs on arrays (CSR graph kernels,
vectorized price/rate updates, the batched atomic executor, batched workload
draws, index-mapped placement kernels, a sorted arrival cursor).  This
package keeps the readable scalar implementation each of those was derived
from -- networkx walks, per-channel price objects, per-pair rate loops, the
per-hop lock/settle walk, per-element draws, nested-dict Lemma-1 arithmetic,
one heap event per arrival -- so the differential suites can pin production
against an independent computation of the same quantity.

Nothing under ``repro`` outside this package imports it (pinned by
``tests/scenarios/test_compare.py``); the suites that use each piece, and
their tolerances, are listed under "Reference oracle" in
``docs/architecture.md``.
"""
