"""Machine-readable verification reports shared by all check suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass
class VerificationReport:
    """Outcome of one relation check.

    status is "PASS" or "FAIL"; witness carries the first failing entry /
    sample point when a check fails, residual the worst observed residual
    for numeric checks (None for exact ones).
    """

    suite: str
    n: int
    relation: str
    status: str
    residual: Optional[float] = None
    tolerance: Optional[float] = None
    seed: Optional[int] = None
    witness: Optional[Any] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def residual_report(suite: str, n: int, relation: str, residual: float,
                    tol: float, **extra) -> VerificationReport:
    """Report of a numeric check: PASS when the residual is at most tol."""
    return VerificationReport(suite=suite, n=n, relation=relation,
                              status="PASS" if residual <= tol else "FAIL",
                              residual=residual, tolerance=tol, **extra)


def combine(reports) -> str:
    """Overall status line for a list of reports."""
    return "PASS" if all(r.passed for r in reports) else "FAIL"
