"""Line-oriented verification reports with a machine-readable summary."""

from __future__ import annotations

from dataclasses import dataclass, field

# counterexamples shown in text output; the rest are counted in one line
MAX_SHOWN = 20


@dataclass
class Report:
    name: str
    passed: bool = True
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def text(self) -> str:
        out = list(self.lines)
        shown = self.failures[:MAX_SHOWN]
        out.extend(f"counterexample: {f}" for f in shown)
        if len(self.failures) > len(shown):
            out.append(f"... and {len(self.failures) - len(shown)} more counterexamples")
        out.append(f"{self.verdict()} {self.name}")
        return "\n".join(out)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "counts": dict(self.counts),
            "failures": list(self.failures),
        }
