"""Finite-difference oracles for force verification.

The oracle only ever calls the forward energy path, so it is independent of
every backward rule in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BasisConfig, Molecule, random_coords
from .model import GeoTModel, ModelConfig


def finite_diff_energy_gradient(energy_fn, coords: np.ndarray,
                                h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function of the coordinates."""
    grad = np.zeros_like(coords)
    for i in range(coords.shape[0]):
        for k in range(3):
            plus = coords.copy()
            minus = coords.copy()
            plus[i, k] += h
            minus[i, k] -= h
            grad[i, k] = (energy_fn(plus) - energy_fn(minus)) / (2.0 * h)
    return grad


def finite_diff_forces(model: GeoTModel, mol: Molecule, h: float = 1e-4) -> np.ndarray:
    """Finite-difference forces in the model's configured sign convention."""

    def energy_of(coords):
        return model.energy(Molecule(mol.atomic_numbers, coords))

    g = finite_diff_energy_gradient(energy_of, mol.coords, h)
    return g if model.config.force_sign == "paper" else -g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-12))


def random_molecule(rng: np.random.Generator, n_atoms: int,
                    elements=(1, 6, 7, 8), box: float = 4.0,
                    min_distance: float = 0.8) -> Molecule:
    numbers = rng.choice(elements, size=n_atoms)
    return Molecule(numbers, random_coords(rng, n_atoms, box, min_distance))


@dataclass
class GradCheckReport:
    n_trials: int
    max_rel_error: float
    threshold: float = 1e-4
    per_trial: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.n_trials == 0 or self.max_rel_error < self.threshold


def force_gradcheck(n_trials: int = 5, seed: int = 0, max_atoms: int = 12,
                    config: ModelConfig | None = None, h: float = 1e-4,
                    threshold: float = 1e-4) -> GradCheckReport:
    """Compare analytic forces against central finite differences on random
    molecules with randomly drawn small architectures."""
    rng = np.random.default_rng(seed)
    report = GradCheckReport(n_trials=n_trials, max_rel_error=0.0,
                             threshold=threshold)
    for trial in range(n_trials):
        if config is None:
            cfg = _random_small_config(rng)
        else:
            cfg = config
        model = GeoTModel.init(cfg, seed=int(rng.integers(1 << 31)))
        mol = random_molecule(rng, int(rng.integers(2, max_atoms + 1)))
        analytic = model.forces(mol)
        numeric = finite_diff_forces(model, mol, h)
        err = relative_error(analytic, numeric)
        report.per_trial.append(err)
        report.max_rel_error = max(report.max_rel_error, err)
    return report


def _random_small_config(rng: np.random.Generator) -> ModelConfig:
    d_m = int(rng.choice([16, 32, 64]))
    heads = int(rng.choice([1, 2, 4]))
    return ModelConfig(
        n_layers=int(rng.integers(1, 5)),
        d_m=d_m, n_heads=heads, d_h=2 * d_m,
        block_kind=str(rng.choice(["sequential", "parallel_mlp"])),
        kernel_mode=str(rng.choice(["plain", "atom_aware"])),
        basis=BasisConfig(kind=str(rng.choice(["gaussian", "linear", "bessel"])),
                          n_basis=int(rng.choice([8, 16, 32]))),
        use_attn_scale=bool(rng.integers(0, 2)),
        d_rbf=16, d_emb2=8,
    )
