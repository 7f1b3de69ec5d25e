"""Check results: named pass/fail verdicts with optional witnesses.

A witness is the smallest index tuple exhibiting a failure; data holds
auxiliary values (ranks, dimensions) worth reporting either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckResult", "Report"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    data: dict | None = None

    def describe(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        bits = [f"{self.name}: {verdict}"]
        if self.witness is not None:
            bits.append(f"witness={self.witness}")
        if self.data:
            bits.append(" ".join(f"{k}={v}" for k, v in self.data.items()))
        return "  ".join(bits)


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
