"""Correctness gate: every output judged against a reference of its own.

Two tolerances, both on ``|R - ref| / (1 + |ref|)``:

* STRICT is the acceptance tolerance of the repository (closed-form oracle
  equivalence 1e-6, ideal-gas flatness 1e-8).  An operation with an output
  outside it, a non-finite output where the reference is finite, or an
  unexpected exception counts in ``failed``; ``failed / attempted`` is the
  failure fraction.
* LOOSE is the loosest accuracy the repository promises for the float
  pipeline (AD against FD, 1e-3).  ``correct`` is false when any output
  misses it, is non-finite, raises unexpectedly or is missing.  A broken
  pipeline therefore cannot pass, while known precision losses (float
  cancellation in ``ising_f`` near T = 0.5, H = 2) still count in
  ``failed`` without turning the run into an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

STRICT = 1e-6
STRICT_FLAT = 1e-8
LOOSE = 1e-3

OK, MISSED, GROSS = 0, 1, 2


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    gross: int = 0               # operations that make the run incorrect
    max_rel_dev: float = 0.0

    @property
    def correct(self) -> bool:
        return self.gross == 0 and self.attempted > 0

    def _judge(self, got, ref, strict):
        if not math.isfinite(ref):
            return GROSS
        if not isinstance(got, float) or not math.isfinite(got):
            return GROSS
        dev = abs(got - ref) / (1.0 + abs(ref))
        self.max_rel_dev = max(self.max_rel_dev, dev)
        if dev > LOOSE:
            return GROSS
        return MISSED if dev > strict else OK

    def op(self, outputs):
        """Judge one operation from its (got, ref, strict) outputs."""
        level = max((self._judge(*o) for o in outputs), default=GROSS)
        self._count(level)
        return level == OK

    def deviation(self, dev, strict, loose):
        """One operation judged by a distance, e.g. a locus position."""
        level = OK if dev <= strict else MISSED if dev <= loose else GROSS
        self._count(level)
        return level == OK

    def expect(self, ok: bool):
        """One operation whose only check is pass/fail (an expected
        DomainViolation, an output that must exist); a miss is gross."""
        self._count(OK if ok else GROSS)
        return ok

    def _count(self, level):
        self.attempted += 1
        self.failed += level != OK
        self.gross += level == GROSS
