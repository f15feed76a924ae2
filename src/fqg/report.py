"""Check results and verification reports.

A report is a named list of (check, pass/fail, witness) triples plus the
backend it ran under.  Failing relation checks always carry a nonempty
witness.  Wall-clock timing is shown in the human-readable table only; JSON
output omits it so identical inputs render byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalar import backend_name, tolerance


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class Check:
    name: str
    passed: bool
    witness: tuple = ()

    def to_dict(self):
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "witness": _jsonable(tuple(self.witness) if self.witness else ()),
        }


def first_failure(indices, pred):
    """The first index where ``pred`` fails, as a tuple; None when all pass.

    ``indices`` is consumed only up to the failure, so a lazy generator stops
    there.  A scalar index is returned as a 1-tuple.
    """
    for idx in indices:
        if not pred(idx):
            return idx if isinstance(idx, tuple) else (idx,)
    return None


def sweep(name: str, indices, pred) -> Check:
    """The check ``name``: ``pred`` holds on every index, else the first
    failing index is the witness."""
    witness = first_failure(indices, pred)
    return Check(name, witness is None, witness or ())


@dataclass
class Report:
    subject: str
    checks: list
    backend: str = field(default_factory=backend_name)
    tol: float | None = None
    elapsed: float | None = None

    def __post_init__(self):
        if self.tol is None and self.backend == "float":
            self.tol = tolerance()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def has_check(self, name: str) -> bool:
        return any(c.name == name for c in self.checks)

    def to_dict(self, include_timing: bool = False):
        d = {
            "subject": self.subject,
            "backend": self.backend,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.backend == "float":
            d["tolerance"] = self.tol
        if include_timing and self.elapsed is not None:
            d["elapsed_seconds"] = self.elapsed
        return d

    def table(self) -> str:
        width = max([len(c.name) for c in self.checks] + [5])
        lines = ["%s  [backend=%s%s]" % (self.subject, self.backend,
                                         ", tol=%g" % self.tol if self.backend == "float" else "")]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            line = "  %-*s  %s" % (width, c.name, mark)
            if not c.passed and c.witness:
                line += "  witness=%r" % (tuple(c.witness),)
            lines.append(line)
        if self.elapsed is not None:
            lines.append("  (%.3fs)" % self.elapsed)
        return "\n".join(lines)
