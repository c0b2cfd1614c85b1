"""Validated record of the fabricated multiband patch dimensions.

The antenna is defined by 24 labeled lengths A through X (millimeters) on a
110 mm x 100 mm substrate.  The labels' geometric meaning (which edge, slot
or stub each one measures) lives in the fabrication drawing and is
deliberately not encoded; the record is a flat label-to-length map with
figure-independent consistency checks: every length positive, A (the
radiating patch edge) the largest, and everything smaller than the
substrate.
"""

from __future__ import annotations

import string
from dataclasses import asdict, dataclass, field, fields

from . import fileio

LABELS = tuple(string.ascii_uppercase[:24])  # A through X

_REFERENCE_MM = {
    "A": 51.5, "B": 38.83, "C": 24.5, "D": 24.5, "E": 3.34, "F": 0.83,
    "G": 1.0, "H": 8.0, "I": 6.5, "J": 1.0, "K": 12.2, "L": 7.4,
    "M": 6.15, "N": 2.155, "O": 1.68, "P": 1.1, "Q": 0.7, "R": 4.1,
    "S": 6.5, "T": 0.5, "U": 1.7, "V": 1.6, "W": 2.85, "X": 0.7,
}


@dataclass(frozen=True)
class Substrate:
    width_mm: float = 110.0
    height_mm: float = 100.0
    dielectric_constant: float = 3.66
    thickness_mm: float = 1.524


@dataclass(frozen=True)
class PatchDimensions:
    """All 24 labeled lengths plus the substrate they sit on.

    Construction requires exactly the labels A..X; value-level rules
    (positivity, A largest, substrate fit) are checked by :func:`validate`
    so that out-of-spec records can still be loaded and reported on.
    """

    lengths_mm: dict
    substrate: Substrate = field(default_factory=Substrate)

    def __post_init__(self):
        lengths = {k: float(v) for k, v in self.lengths_mm.items()}
        missing = sorted(set(LABELS) - set(lengths))
        if missing:
            raise ValueError(f"missing dimension label(s): {', '.join(missing)}")
        unknown = sorted(set(lengths) - set(LABELS))
        if unknown:
            raise ValueError(f"unknown dimension label(s): {', '.join(unknown)}")
        object.__setattr__(self, "lengths_mm", {k: lengths[k] for k in LABELS})

    def __getitem__(self, label: str) -> float:
        return self.lengths_mm[label]


def load_dimensions(path) -> PatchDimensions:
    """Load a dimension record from JSON.

    Expects an object with all 24 labels; a "substrate" sub-object is
    optional and may itself omit fields, which fall back to the defaults.
    Every value must be a finite number, checked as scenario JSON fields are.
    Non-positive lengths are rejected here so a loaded record is usable.
    """
    raw = fileio.load_json(path, "dimension")
    if not isinstance(raw, dict):
        raise ValueError("dimension file must contain a JSON object")
    lengths = dict(raw)
    substrate = fileio.parse_section(lengths.pop("substrate", {}), Substrate, "substrate")
    for label, value in lengths.items():
        fileio.check_field(value, "float", f"dimension {label}")
        if value <= 0:
            raise ValueError(f"dimension {label} must be positive, got {value}")
    return PatchDimensions(lengths_mm=lengths, substrate=substrate)


def save_dimensions(dims: PatchDimensions, path) -> None:
    """Write a record as JSON that load_dimensions reads back identically."""
    doc = dict(dims.lengths_mm)
    doc["substrate"] = asdict(dims.substrate)
    fileio.dump_json(doc, path)


def validate(dims: PatchDimensions) -> list:
    """Figure-independent consistency checks; empty list means all pass."""
    violations = []
    sub = dims.substrate
    for f in fields(Substrate):
        v = getattr(sub, f.name)
        if v <= 0:
            violations.append(f"substrate {f.name} must be positive, got {v:g}")
    for label, value in dims.lengths_mm.items():
        if value <= 0:
            violations.append(f"dimension {label} must be positive, got {value:g}")
    a = dims.lengths_mm["A"]
    for label, value in dims.lengths_mm.items():
        if label != "A" and value > a:
            violations.append(f"A must be the largest length, but {label}={value:g} > A={a:g}")
    fit_limit = min(sub.width_mm, sub.height_mm)
    for label, value in dims.lengths_mm.items():
        if value >= fit_limit:
            violations.append(
                f"dimension {label}={value:g} does not fit the substrate "
                f"(must be < {fit_limit:g})"
            )
    return violations


def reference_dimensions() -> PatchDimensions:
    """The fabricated three-band patch design this toolkit was built around."""
    return PatchDimensions(lengths_mm=dict(_REFERENCE_MM))
