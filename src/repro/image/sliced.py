"""The one contraction call of the image methods.

Every image method bottoms out in transition-relation contractions
``cont(a, b)`` summed over a set of closed indices.  The four
computers make each of them through :meth:`MonolithicExecutor.contract`
on their ``executor`` attribute, looking the method up at call time,
so a wrapper installed on the class (the benchmark's span recorder
counts ``image.contract`` this way) sees every one of them.  The class
is a single kernel call and keeps its module path because that
recorder names the target by it.
"""

from __future__ import annotations

from typing import Iterable

from repro.indices.index import Index
from repro.tdd.tdd import TDD


class MonolithicExecutor:
    """One kernel call per contraction."""

    def contract(self, a: TDD, b: TDD, sum_over: Iterable[Index]) -> TDD:
        return a.contract(b, sum_over)

    def __repr__(self) -> str:
        return "MonolithicExecutor()"
