"""Garbage-collection victim selection policies.

The device reclaims space by choosing a *victim* erase unit, migrating
its still-valid pages to fresh locations, and erasing it.  The policy
choosing the victim determines write amplification under skew; the
paper's emulator uses the standard greedy policy.  FIFO and
cost-benefit are provided for the over-provisioning/policy ablation
bench.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .mapping import BlockKey, PageMapping

#: A victim selector maps (candidates, mapping, erase_counts) -> victim.
VictimPolicy = Callable[[list[BlockKey], PageMapping, dict[BlockKey, int]], BlockKey | None]


def greedy(
    candidates: list[BlockKey],
    mapping: PageMapping,
    erase_counts: dict[BlockKey, int],
) -> BlockKey | None:
    """Pick the block with the fewest valid pages (ties: least worn).

    Returns ``None`` when there is no candidate.  Selection runs as one
    heap pass over ``(valid, wear, position)`` ranks; the position
    component keeps the tie-break identical to the original first-wins
    scan, so victim choices (and therefore every simulated counter)
    are unchanged.
    """
    if not candidates:
        return None
    valid_count = mapping.valid_count
    wear = erase_counts.get
    ranks = [
        (valid_count(key), wear(key, 0), position)
        for position, key in enumerate(candidates)
    ]
    return candidates[heapq.nsmallest(1, ranks)[0][2]]


def fifo(
    candidates: list[BlockKey],
    mapping: PageMapping,
    erase_counts: dict[BlockKey, int],
) -> BlockKey | None:
    """Oldest-used block first, regardless of valid count."""
    return candidates[0] if candidates else None


def cost_benefit(
    candidates: list[BlockKey],
    mapping: PageMapping,
    erase_counts: dict[BlockKey, int],
) -> BlockKey | None:
    """Classic cost-benefit: maximize (1 - u) / (1 + u), u = utilization.

    Without timestamps the age term degenerates; this is the standard
    static form used for ablation against greedy.
    """
    best: BlockKey | None = None
    best_score = -1.0
    pages_per_block = mapping.pages_per_block
    for key in candidates:
        utilization = mapping.valid_count(key) / pages_per_block
        if utilization >= 1.0:
            continue
        score = (1.0 - utilization) / (1.0 + utilization)
        if score > best_score:
            best, best_score = key, score
    return best


def wear_aware(
    base_policy: VictimPolicy = greedy, spread_threshold: int = 50
) -> VictimPolicy:
    """Wrap a policy with static wear leveling.

    When the erase-count spread between the most- and least-worn
    candidate exceeds ``spread_threshold``, the least-worn block is
    victimized regardless of its valid count — migrating its (cold)
    data onto hotter blocks so wear evens out.  Otherwise the base
    policy decides.
    """

    def policy(
        candidates: list[BlockKey],
        mapping: PageMapping,
        erase_counts: dict[BlockKey, int],
    ) -> BlockKey | None:
        if candidates and erase_counts:
            counts = [erase_counts.get(key, 0) for key in candidates]
            if max(counts) - min(counts) > spread_threshold:
                coldest = min(
                    candidates, key=lambda key: erase_counts.get(key, 0)
                )
                return coldest
        return base_policy(candidates, mapping, erase_counts)

    return policy


POLICIES: dict[str, VictimPolicy] = {
    "greedy": greedy,
    "fifo": fifo,
    "cost-benefit": cost_benefit,
    "wear-aware": wear_aware(),
}


def get_policy(name: str) -> VictimPolicy:
    """Look up a victim policy by name; raises ``KeyError`` on unknown names."""
    return POLICIES[name]
