"""Line-oriented verification reports with a machine-readable summary."""

from __future__ import annotations

# counterexamples shown in text output; the rest are counted in one line
MAX_SHOWN = 20


class Report:
    """One check's verdict, its counts, failure messages and text lines.

    A report fails exactly when :meth:`fail` has named a failure.  The
    children that ``verify --jobs`` forks send their reports to the main
    process pickled, through a pipe, so a report must pickle.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: dict[str, int] = {}
        self.failures: list[str] = []
        self.lines: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, *messages: str) -> None:
        self.failures.extend(messages)

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
