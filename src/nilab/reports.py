"""Check reporting, the read-only record bases and exact-value serialization.

Rationals are serialized as strings ("p/q", or "p" when the denominator is
one) so no precision is lost on the way to JSON or CSV.
"""

from __future__ import annotations


class ReadOnly:
    """Base of the package's read-only result records: each subclass's
    __init__ sets its fields with object.__setattr__, and any later
    assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ValueRecord(ReadOnly):
    """A read-only record compared and hashed by the tuple its _key returns."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class CheckItem:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: str = ""):
        self.name = name
        self.passed = passed
        self.details = details

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.details:
            out["details"] = self.details
        return out


class CheckReport:
    """A named bundle of pass/fail items, one per verified statement."""

    __slots__ = ("name", "items")

    def __init__(self, name: str):
        self.name = name
        self.items = []

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
