"""Result records for verification scans and the regime classifier."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = ["VerificationReport", "ClassificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """One named check: a grid or probe description, the worst margin or
    residual it produced, and the verdict against its tolerance.

    pass is margin > tolerance for margin-type checks and
    residual < tolerance for residual-type checks.
    """

    name: str
    grid: str
    tolerance: float
    min_margin: Optional[float] = None
    max_residual: Optional[float] = None
    argmin: Optional[tuple] = None
    passed: bool = field(default=False)

    @classmethod
    def from_margin(cls, name, grid, margin, tolerance, argmin=None):
        return cls(name=name, grid=grid, tolerance=tolerance, min_margin=margin,
                   argmin=argmin, passed=bool(margin > tolerance))

    @classmethod
    def from_residual(cls, name, grid, residual, tolerance, argmin=None):
        return cls(name=name, grid=grid, tolerance=tolerance, max_residual=residual,
                   argmin=argmin, passed=bool(residual < tolerance))

    def to_json_dict(self) -> dict:
        out = {"region": self.name, "grid": self.grid}
        if self.min_margin is not None:
            out["min_margin"] = float(self.min_margin)
        if self.max_residual is not None:
            out["max_residual"] = float(self.max_residual)
        out["argmin"] = (
            [float(v) for v in self.argmin] if self.argmin is not None else None
        )
        out["tolerance"] = float(self.tolerance)
        out["pass"] = bool(self.passed)
        return out

    def to_text(self) -> str:
        lines = [f"region: {self.name}", f"grid: {self.grid}"]
        if self.min_margin is not None:
            lines.append(f"min_margin: {self.min_margin:.6e}")
        if self.max_residual is not None:
            lines.append(f"max_residual: {self.max_residual:.6e}")
        if self.argmin is not None:
            lines.append(f"argmin: {tuple(round(float(v), 6) for v in self.argmin)}")
        lines.append(f"tolerance: {self.tolerance:.6e}")
        lines.append(f"pass: {self.passed}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict record for one parameter triple; to_json and to_text give
    the fields in their declared order, which is frozen for downstream
    parsing."""

    regime: str
    bounded: bool
    fredholm: Optional[bool] = None
    winding: Optional[int] = None
    index: Optional[int] = None
    kernel_trivial: Optional[bool] = None
    invertible: Optional[bool] = None
    alpha_c: Optional[float] = None
    critical_s: Optional[float] = None
    notes: str = ""

    def __post_init__(self):
        if self.invertible:
            if not (self.fredholm and self.index == 0 and self.kernel_trivial):
                raise ValueError(
                    "invertible verdicts require fredholm, index 0 and a trivial kernel"
                )
        if self.fredholm is False and (self.winding is not None or self.index is not None):
            raise ValueError("non-Fredholm verdicts carry no winding or index")

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, ensure_ascii=False, separators=(", ", ": "))

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = "-"
            lines.append(f"{f.name}: {value}")
        return "\n".join(lines)
