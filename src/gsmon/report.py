"""Check outcome records shared by every verification routine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import GsmonError


def require_mode(mode: str) -> None:
    """Refuse a check mode other than "exhaustive" or "randomized"."""
    if mode not in ("exhaustive", "randomized"):
        raise GsmonError(f"unknown mode {mode!r}")


def show(value) -> object:
    """Render a witness value as JSON-stable data (strings, lists, dicts)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): show(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [show(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(show(v) for v in value)
    if hasattr(value, "describe"):
        return value.describe()
    return repr(value)


@dataclass
class CheckReport:
    """Outcome of one law / pullback / classification check."""

    name: str
    passed: bool
    mode: str = "exhaustive"  # exhaustive | randomized | direct
    trials: int = 0
    seed: Optional[int] = None
    witness: object = None
    note: str = ""
    subreports: list = field(default_factory=list)

    @classmethod
    def of_run(cls, name: str, mode: str, trials: int, seed: int, **fields) -> "CheckReport":
        """The report of a check run in `mode`: a randomized run records its
        trials and seed, an exhaustive one 0 and None, since it drew nothing."""
        if mode == "randomized":
            return cls(name=name, mode=mode, trials=trials, seed=seed, **fields)
        return cls(name=name, mode=mode, **fields)

    def to_json(self) -> dict:
        data = {
            "name": self.name,
            "passed": self.passed,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "witness": show(self.witness),
            "note": self.note,
        }
        if self.subreports:
            data["subreports"] = [r.to_json() for r in self.subreports]
        return data
