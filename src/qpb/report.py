"""Check results: named pass/fail verdicts with optional witnesses.

A witness is the smallest index tuple exhibiting a failure; data holds
auxiliary values (ranks, dimensions) worth reporting either way.
"""

from __future__ import annotations

__all__ = ["CheckResult", "Report"]


class CheckResult:
    __slots__ = ("name", "passed", "witness", "data")

    def __init__(
        self, name: str, passed: bool, witness: tuple | None = None, data: dict | None = None
    ):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.data = data

    def describe(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        bits = [f"{self.name}: {verdict}"]
        if self.witness is not None:
            bits.append(f"witness={self.witness}")
        if self.data:
            bits.append(" ".join(f"{k}={v}" for k, v in self.data.items()))
        return "  ".join(bits)


class Report:
    def __init__(self):
        self.checks: list[CheckResult] = []

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
