"""Relaxed secure multiparty computation (paper §3, Definition 1).

The primitive set the paper builds confidential auditing from:

* :func:`~repro.smc.intersection.secure_set_intersection` — ∩ₛ (§3.1);
* :func:`~repro.smc.equality.secure_equality` — =ₛ (§3.2), blind-TTP and
  commutative variants;
* :func:`~repro.smc.ranking.secure_ranking` — Maxₛ/Minₛ/Rankₛ (§3.3);
* :func:`~repro.smc.union_.secure_set_union` — ∪ₛ (§3.4);
* :func:`~repro.smc.sum_.secure_sum` / ``secure_weighted_sum`` — Σₛ (§3.5);
* :func:`~repro.smc.comparison.secure_compare` — <ₛ for predicates.

"Relaxed" (Definition 1) means: only selected observers learn the result,
a blind TTP may coordinate, and *secondary* information may be disclosed —
every such disclosure is recorded in the run's
:class:`~repro.smc.leakage.LeakageLedger`.

Every driver is written once, as the ``secure_*_async`` coroutine whose
only suspension point is ``await net.drain(...)``.  Every run has a
``SimNetwork`` of its own, whose drain hands an event loop a turn every
:data:`~repro.net.simnet.YIELD_EVERY` deliveries: awaited on a loop,
independent runs interleave; the plain ``secure_*`` name is
:func:`repro.twin.sync_twin` of the same body, which resumes those turns
in place and runs it to completion.  One body means results, spans,
costs and leakage cannot differ between the two names.
"""

from repro.smc.base import SmcContext, SmcResult
from repro.smc.comparison import (
    COMPARISON_OPERATORS,
    evaluate_operator,
    secure_compare,
    secure_compare_async,
    secure_compare_batch,
    secure_compare_batch_async,
)
from repro.smc.equality import (
    AffineBlinding,
    BlindTtp,
    EqualityParty,
    secure_equality,
    secure_equality_async,
    secure_equality_commutative,
    secure_equality_commutative_async,
)
from repro.smc.intersection import (
    IntersectionParty,
    fig4_walkthrough,
    secure_set_intersection,
    secure_set_intersection_async,
)
from repro.smc.leakage import LeakageEvent, LeakageLedger
from repro.smc.ranking import (
    MonotoneBlinding,
    RankingParty,
    RankingTtp,
    secure_ranking,
    secure_ranking_async,
)
from repro.smc.sum_ import (
    SumParty,
    secure_sum,
    secure_sum_async,
    secure_weighted_sum,
    secure_weighted_sum_async,
)
from repro.smc.union_ import UnionParty, secure_set_union, secure_set_union_async

__all__ = [
    "SmcContext",
    "SmcResult",
    "LeakageEvent",
    "LeakageLedger",
    "secure_set_intersection",
    "secure_set_intersection_async",
    "IntersectionParty",
    "fig4_walkthrough",
    "secure_set_union",
    "secure_set_union_async",
    "UnionParty",
    "secure_equality",
    "secure_equality_async",
    "secure_equality_commutative",
    "secure_equality_commutative_async",
    "AffineBlinding",
    "BlindTtp",
    "EqualityParty",
    "secure_sum",
    "secure_sum_async",
    "secure_weighted_sum",
    "secure_weighted_sum_async",
    "SumParty",
    "secure_ranking",
    "secure_ranking_async",
    "MonotoneBlinding",
    "RankingParty",
    "RankingTtp",
    "secure_compare",
    "secure_compare_async",
    "secure_compare_batch",
    "secure_compare_batch_async",
    "evaluate_operator",
    "COMPARISON_OPERATORS",
]
