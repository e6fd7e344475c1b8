"""Run configuration shared by the CLI and the randomized verification passes."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pairs import DEFAULT_TOL


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = DEFAULT_TOL
    rng_seed: int = 0
    sample_count: int = 10_000
    output_format: str = "text"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.output_format not in ("text", "json"):
            raise ValueError("output_format must be 'text' or 'json'")

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "rng_seed": self.rng_seed,
            "sample_count": self.sample_count,
            "output_format": self.output_format,
        }
