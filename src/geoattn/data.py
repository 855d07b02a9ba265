"""XYZ / extended-XYZ ingestion and serialization, plus dataset splits.

Numeric output uses 17 significant digits so that write -> parse round-trips
are exact at float64 precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .geometry import Molecule

ELEMENTS = [
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
]
SYMBOL_TO_Z = {s: i + 1 for i, s in enumerate(ELEMENTS)}


def _parse_frame(lines: list[str], start: int) -> tuple[Molecule, int]:
    """Parse one frame beginning at ``lines[start]``; returns (molecule, next)."""
    lineno = start + 1
    try:
        n = int(lines[start].strip())
    except (ValueError, IndexError):
        raise ParseError("expected an atom count", lineno)
    if n < 1:
        raise ParseError("atom count must be >= 1", lineno)
    if len(lines) < start + 2 + n:
        raise ParseError(f"file ends before {n} atom lines", len(lines))

    comment = lines[start + 1]
    energy = None
    for token in comment.split():
        if token.startswith("energy="):
            try:
                energy = float(token[len("energy="):])
            except ValueError:
                raise ParseError(f"bad energy value {token!r}", start + 2)

    numbers, coords, forces = [], [], []
    for i in range(n):
        lineno = start + 3 + i
        fields = lines[start + 2 + i].split()
        if len(fields) not in (4, 7):
            raise ParseError(f"expected 4 or 7 columns, got {len(fields)}", lineno)
        sym = fields[0]
        if sym not in SYMBOL_TO_Z:
            raise ParseError(f"unknown element symbol {sym!r}", lineno)
        numbers.append(SYMBOL_TO_Z[sym])
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError("non-numeric coordinate", lineno)
        coords.append(values[:3])
        if len(values) == 6:
            forces.append(values[3:])
    if forces and len(forces) != n:
        raise ParseError("some atoms have forces and some do not", lineno)
    try:
        mol = Molecule(np.array(numbers), np.array(coords), energy=energy,
                       forces=np.array(forces) if forces else None)
    except DataError as exc:     # a bad label or geometry: name the frame's first line
        raise ParseError(str(exc), start + 1) from exc
    return mol, start + 2 + n


def parse_xyz_frames(text: str) -> list[Molecule]:
    """Parse a concatenated multi-frame XYZ string."""
    lines = text.splitlines()
    mols = []
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        mol, pos = _parse_frame(lines, pos)
        mols.append(mol)
    if not mols:
        raise ParseError("empty input", 1)
    return mols


def write_xyz(molecule: Molecule) -> str:
    lines = [str(molecule.n_atoms)]
    lines.append("" if molecule.energy is None
                 else f"energy={molecule.energy:.17g}")
    for i in range(molecule.n_atoms):
        sym = ELEMENTS[molecule.atomic_numbers[i] - 1]
        x, y, z = molecule.coords[i]
        row = f"{sym} {x:.17g} {y:.17g} {z:.17g}"
        if molecule.forces is not None:
            fx, fy, fz = molecule.forces[i]
            row += f" {fx:.17g} {fy:.17g} {fz:.17g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_xyz_frames(molecules: list[Molecule]) -> str:
    return "".join(write_xyz(m) for m in molecules)


@dataclass
class Dataset:
    molecules: list
    target_name: str = "energy"
    splits: dict = field(default_factory=dict)

    def subset(self, split: str) -> list:
        if split not in self.splits:
            raise ConfigError(f"dataset has no {split!r} split")
        return [self.molecules[i] for i in self.splits[split]]

    def __len__(self) -> int:
        return len(self.molecules)


def split_dataset(dataset: Dataset, fractions=(0.8, 0.1, 0.1), seed: int = 0) -> Dataset:
    """Deterministic shuffled split.  Sizes are floors of the fractions with
    every remainder molecule going to train."""
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ConfigError(f"split fractions must lie in [0, 1], got {tuple(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-12:
        raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)}")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(np.floor(fractions[1] * n))
    n_test = int(np.floor(fractions[2] * n))
    n_train = n - n_val - n_test
    dataset.splits = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:],
    }
    return dataset


def load_dataset(path, fractions=(0.8, 0.1, 0.1), seed: int = 0) -> Dataset:
    with open(path) as fh:
        mols = parse_xyz_frames(fh.read())
    return split_dataset(Dataset(molecules=mols), fractions, seed)
