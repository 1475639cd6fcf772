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

Every driver is a plain function run in the caller's thread: it
registers its parties on a ``SimNetwork`` (its own, or the one passed
as ``net=``), starts them and drains the network
(``docs/concurrency.md``).
"""

from repro.smc.base import SmcContext, SmcResult
from repro.smc.comparison import (
    COMPARISON_OPERATORS,
    evaluate_operator,
    secure_compare,
    secure_compare_batch,
)
from repro.smc.equality import (
    AffineBlinding,
    BlindTtp,
    EqualityParty,
    secure_equality,
    secure_equality_commutative,
)
from repro.smc.intersection import (
    IntersectionParty,
    fig4_walkthrough,
    secure_set_intersection,
)
from repro.smc.leakage import LeakageEvent, LeakageLedger
from repro.smc.ranking import (
    MonotoneBlinding,
    RankingParty,
    RankingTtp,
    secure_ranking,
)
from repro.smc.sum_ import (
    SumParty,
    secure_sum,
    secure_weighted_sum,
)
from repro.smc.union_ import UnionParty, secure_set_union

__all__ = [
    "SmcContext",
    "SmcResult",
    "LeakageEvent",
    "LeakageLedger",
    "secure_set_intersection",
    "IntersectionParty",
    "fig4_walkthrough",
    "secure_set_union",
    "UnionParty",
    "secure_equality",
    "secure_equality_commutative",
    "AffineBlinding",
    "BlindTtp",
    "EqualityParty",
    "secure_sum",
    "secure_weighted_sum",
    "SumParty",
    "secure_ranking",
    "MonotoneBlinding",
    "RankingParty",
    "RankingTtp",
    "secure_compare",
    "secure_compare_batch",
    "evaluate_operator",
    "COMPARISON_OPERATORS",
]
