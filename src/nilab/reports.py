"""Check reporting and exact-value serialization helpers.

Rationals are serialized as strings ("p/q", or "p" when the denominator is
one) so no precision is lost on the way to JSON or CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    name: str
    passed: bool
    details: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class CheckReport:
    """A named bundle of pass/fail items, one per verified statement."""

    name: str
    items: list = field(default_factory=list)

    def add(self, name: str, passed: bool, details: str = "") -> bool:
        self.items.append(CheckItem(name, bool(passed), details))
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.passed]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "items": [item.to_dict() for item in self.items],
        }

    def summary(self) -> str:
        good = sum(1 for item in self.items if item.passed)
        return f"{self.name}: {good}/{len(self.items)} checks passed"


def coords_strs(element) -> list:
    return [str(c) for c in element.coords]
