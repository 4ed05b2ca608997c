"""Fairness metrics for competing flows (extension beyond the paper, which
lists shared queues / competing connections as future work).

Beyond Jain's index this module provides the QUICbench-style competition
analysis: pairwise throughput-ratio matrices, a "beats" relation from
head-to-head goodputs, and a transitivity check over that relation. The
relation built from one scalar per profile is transitive by construction;
the interesting input is *per-duel* goodputs (A-vs-B measured head-to-head),
where A can beat B, B beat C, and C still beat A — a real intransitivity in
how stacks compete for a shared queue.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one flow takes all."""
    if not values:
        raise ValueError("fairness of an empty allocation")
    peak = max(values)
    if peak == 0:
        return 1.0
    # Scaled to (0, 1] so squaring can neither underflow nor overflow.
    scaled = [v / peak for v in values]
    return sum(scaled) ** 2 / (len(values) * sum(v * v for v in scaled))


def throughput_ratio_matrix(goodputs: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
    """Pairwise goodput ratios: ``matrix[a][b] = goodputs[a] / goodputs[b]``.

    A zero denominator yields ``inf`` (or 1.0 when both sides are zero), so a
    stalled profile shows up as an extreme ratio rather than an exception.
    """
    matrix: Dict[str, Dict[str, float]] = {}
    for a, ga in goodputs.items():
        row: Dict[str, float] = {}
        for b, gb in goodputs.items():
            if gb > 0:
                row[b] = ga / gb
            else:
                row[b] = 1.0 if ga == 0 else float("inf")
        matrix[a] = row
    return matrix


def beats_relation(
    head_to_head: Mapping[Tuple[str, str], Tuple[float, float]],
    margin: float = 0.05,
) -> Set[Tuple[str, str]]:
    """The "beats" relation from head-to-head goodputs.

    ``head_to_head[(a, b)] = (goodput_a, goodput_b)`` measured with a and b
    competing; ``(a, b)`` enters the relation when a's goodput exceeds b's by
    more than ``margin`` (relative), i.e. the win is outside the noise band.
    Each unordered pair needs only one entry — ``(b, a)`` is implied.
    """
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    relation: Set[Tuple[str, str]] = set()
    for (a, b), (ga, gb) in head_to_head.items():
        if ga > gb * (1 + margin):
            relation.add((a, b))
        elif gb > ga * (1 + margin):
            relation.add((b, a))
    return relation


def transitivity_violations(
    beats: Iterable[Tuple[str, str]],
) -> List[Tuple[str, str, str]]:
    """Triples ``(a, b, c)`` with a beats b and b beats c but not a beats c.

    An empty list means the competition outcomes form a consistent pecking
    order; violations mean "which stack wins" depends on the opponent, so no
    single ranking exists.
    """
    relation = set(beats)
    winners: Dict[str, Set[str]] = {}
    for a, b in relation:
        winners.setdefault(a, set()).add(b)
    violations = []
    for a, losers in winners.items():
        for b in losers:
            for c in winners.get(b, ()):
                if c != a and (a, c) not in relation:
                    violations.append((a, b, c))
    return sorted(violations)
