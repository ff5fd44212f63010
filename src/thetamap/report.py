"""Uniform pass/fail check records shared by the verification modules.

Failures are data, not exceptions: every verifier returns a report whose
checks name the property verified and, on failure, a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class CheckReport:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> Check:
        c = Check(name, passed, detail)
        self.checks.append(c)
        return c

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def records(self) -> list[dict]:
        """The checks as JSON-ready {"name", "pass", "detail"} records."""
        return [{"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks]

    def __str__(self) -> str:
        lines = [f"== {self.title} =="]
        lines += [str(c) for c in self.checks]
        return "\n".join(lines)
