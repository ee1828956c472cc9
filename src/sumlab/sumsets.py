"""Additive-combinatorics primitives: sumsets, spans, common differences,
and the sumset stability implication as a mechanically checkable property.

For finite nonempty integer sets A and B, |A+B| >= |A| + |B| - 1, with
equality exactly when both sets are arithmetic progressions with a common
difference.  The stability theorem checked here says the structure is
robust: when |A+B| < |A| + |B| + min(|A|,|B|) - 2 - [span(A) = span(B)],
both spans divided by the joint common difference are bounded by
|A+B| - |B| and |A+B| - |A| respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SumsetError(ValueError):
    """Empty input set or an undefined common difference."""


def _as_set(xs, name: str) -> frozenset[int]:
    out = frozenset(int(x) for x in xs)
    if not out:
        raise SumsetError(f"{name} must be nonempty")
    return out


def sumset(A, B) -> frozenset[int]:
    """{a + b : a in A, b in B}."""
    a = _as_set(A, "A")
    b = _as_set(B, "B")
    return frozenset(x + y for x in a for y in b)


def span(X) -> int:
    """max(X) - min(X); 0 for singletons."""
    x = _as_set(X, "X")
    return max(x) - min(x)


def common_difference(A, B) -> int:
    """gcd of all intra-set differences of A and of B.

    Undefined (error) when both sets are singletons; a singleton contributes
    no differences.
    """
    a = sorted(_as_set(A, "A"))
    b = sorted(_as_set(B, "B"))
    if len(a) == 1 and len(b) == 1:
        raise SumsetError("common difference undefined for two singletons")
    d = 0
    for xs in (a, b):
        for x in xs[1:]:
            d = math.gcd(d, x - xs[0])
    return d


@dataclass(frozen=True)
class StanchescuVerdict:
    """Evaluation of the stability hypothesis and both conclusions.

    ``hypothesis_holds`` implies ``conclusion_holds`` (it is a theorem); a
    verdict violating that is a build-stopping bug.
    """

    hypothesis_holds: bool
    spanA_over_d: int
    spanB_over_d: int
    rhsA: int
    rhsB: int
    conclusion_holds: bool


def stanchescu_check(A, B) -> StanchescuVerdict:
    a = _as_set(A, "A")
    b = _as_set(B, "B")
    d = common_difference(a, b)
    ab = sumset(a, b)
    delta = 1 if span(a) == span(b) else 0
    hypothesis = len(ab) < len(a) + len(b) + min(len(a), len(b)) - 2 - delta
    rhs_a = len(ab) - len(b)
    rhs_b = len(ab) - len(a)
    # d >= 1 and divides both spans, so the quotients are exact
    span_a = span(a) // d
    span_b = span(b) // d
    conclusion = span_a <= rhs_a and span_b <= rhs_b
    return StanchescuVerdict(hypothesis, span_a, span_b, rhs_a, rhs_b, conclusion)
