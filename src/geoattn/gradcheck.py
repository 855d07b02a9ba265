"""Finite-difference oracles for force verification.

The oracle only ever calls the forward energy path, so it is independent of
every backward rule in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BasisConfig, Molecule, random_coords
from .model import GeoTModel, ModelConfig


H = 1e-4            # central-difference step
THRESHOLD = 1e-4    # largest relative force error that passes


def finite_diff_forces(model: GeoTModel, mol: Molecule) -> np.ndarray:
    """Central finite differences of the energy, as forces in the model's
    configured sign convention.  The 6N displaced copies are scored in
    groups (see :meth:`GeoTModel.energies`)."""
    copies = []
    for i in range(mol.coords.shape[0]):
        for k in range(3):
            for step in (H, -H):
                coords = mol.coords.copy()
                coords[i, k] += step
                copies.append(Molecule(mol.atomic_numbers, coords))
    plus, minus = model.energies(copies).reshape(-1, 2).T
    grad = ((plus - minus) / (2.0 * H)).reshape(mol.coords.shape)
    return grad if model.config.force_sign == "paper" else -grad


def random_molecule(rng: np.random.Generator, n_atoms: int,
                    elements=(1, 6, 7, 8), box: float = 4.0,
                    min_distance: float = 0.8) -> Molecule:
    numbers = rng.choice(elements, size=n_atoms)
    return Molecule(numbers, random_coords(rng, n_atoms, box, min_distance))


@dataclass
class GradCheckReport:
    per_trial: list = field(default_factory=list)   # relative error per trial

    @property
    def max_rel_error(self) -> float:
        """The largest error, NaN if any is; 0 for no trials."""
        return float(np.max(self.per_trial, initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_rel_error < THRESHOLD


def force_gradcheck(n_trials: int = 5, seed: int = 0, max_atoms: int = 12,
                    config: ModelConfig | None = None) -> GradCheckReport:
    """Compare analytic forces against central finite differences on random
    molecules with randomly drawn small architectures."""
    rng = np.random.default_rng(seed)
    report = GradCheckReport()
    for _trial in range(n_trials):
        cfg = _random_small_config(rng) if config is None else config
        model = GeoTModel.init(cfg, seed=int(rng.integers(1 << 31)))
        mol = random_molecule(rng, int(rng.integers(2, max_atoms + 1)))
        analytic = model.forces(mol)
        numeric = finite_diff_forces(model, mol)
        report.per_trial.append(float(np.max(np.abs(analytic - numeric))
                                      / (np.max(np.abs(numeric)) + 1e-12)))
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
