"""Tests-only helper that copies one of nilab's records with some fields
changed."""

import inspect


def rebuilt(record, **changes):
    """A new record of record's class, built through its constructor from
    record's fields with changes applied.  The constructor's checks run again
    (a Triplet's brackets) and its caches start empty (a PairData's)."""
    cls = type(record)
    names = list(inspect.signature(cls).parameters)
    unknown = sorted(set(changes) - set(names))
    if unknown:
        raise TypeError(f"{cls.__name__} has no constructor field {unknown}")
    return cls(**{name: changes.get(name, getattr(record, name)) for name in names})
