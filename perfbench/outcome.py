"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Outcome:
    """Operations attempted and failed, named correctness checks, the
    metrics of this run's kind (end-to-end or per-layer) and free-form
    detail for the run record."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a check; a failed one keeps the first detail given."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.problems.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0
