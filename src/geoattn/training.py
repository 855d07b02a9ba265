"""Losses, Adam with warmup/decay scheduling, the training loop, and the
synthetic Morse-potential dataset used for desk-scale verification.

The force term of the composite loss contains the gradient of the predicted
energy w.r.t. coordinates; differentiating that loss w.r.t. the parameters
is the double-backward path the autodiff engine was built for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .errors import ConfigError, DataError
from .geometry import Molecule, random_coords
from .model import GeoTModel, checkpoint_bytes, groups

# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    lr: float = 2e-4
    warmup_steps: int = 3000
    decay_factor: float = 0.95
    decay_every: int = 200_000
    batch_size: int = 32
    max_epochs: int = 300
    max_steps: int = 0            # 0: no limit
    eval_every: int = 10_000
    force_weight: float = 1000.0
    use_forces: bool = True
    normalize_targets: bool = True
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "warmup_steps", "decay_factor", "decay_every",
                     "batch_size", "max_epochs", "eval_every", "patience"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if self.force_weight < 0:
            raise ConfigError("force_weight must be >= 0")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to ``lr`` followed by stepwise geometric decay."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    warm = min(step / cfg.warmup_steps, 1.0)
    return cfg.lr * warm * cfg.decay_factor ** (step // cfg.decay_every)


# ---------------------------------------------------------------------------
# losses


def composite_loss(e_label: float, e_hat: ad.Tensor, de_dr_label: np.ndarray, *,
                   de_dr: ad.Tensor, weight: float) -> ad.Tensor:
    """|E - Ê| + weight * sum_j |dE/dr_j - dÊ/dr_j|.

    ``de_dr_label`` is the energy-gradient label, i.e. the *negative* of the
    physical force, and ``de_dr`` the predicted gradient dÊ/dr, taken with
    ``create_graph`` so that the loss differentiates w.r.t. the parameters.
    The force term sums over atoms and components.
    """
    if de_dr_label is None:
        raise ConfigError("composite loss requires force labels")
    energy_term = ad.absolute(ad.sub(e_hat, e_label))
    force_term = ad.tensor_sum(ad.absolute(ad.sub(de_dr, de_dr_label)))
    return ad.add(energy_term, ad.mul(force_term, weight))


def molecule_loss(model: GeoTModel, mol: Molecule, cfg: TrainConfig,
                  parts: "tuple[ad.Tensor, ad.Tensor | None] | None" = None) -> ad.Tensor:
    """The loss of one molecule.  ``parts`` are its energy and energy-gradient
    rows (None without a force term) from the graph of the group it ran in
    (see :func:`group_losses`); without them it runs as a group of one."""
    if mol.energy is None:
        raise DataError("molecule has no energy label")
    if parts is None:
        return group_losses(model, [mol], cfg)[0]
    e_hat, de_dr = parts
    if cfg.use_forces and mol.forces is not None:
        # dataset forces are physical (F = -grad E); the loss compares
        # energy gradients, so flip the sign of the label
        return composite_loss(mol.energy, e_hat, -mol.forces,
                              de_dr=de_dr, weight=cfg.force_weight)
    return ad.absolute(ad.sub(e_hat, mol.energy))


def group_losses(model: GeoTModel, group: list, cfg: TrainConfig) -> list:
    """The loss of each molecule of ``group`` from one graph: one forward and,
    for the force terms, one gradient of the summed energies w.r.t. the
    stacked coordinates; each loss is ``molecule_loss`` of that molecule's
    energy and gradient rows."""
    energies, coords = model.forward_parts(group)
    de_dr = None
    if cfg.use_forces and any(mol.forces is not None for mol in group):
        (de_dr,) = ad.grad(ad.tensor_sum(energies), [coords], create_graph=True)
    losses, lo = [], 0
    for b, mol in enumerate(group):
        rows = None if de_dr is None else ad.slice_axis(de_dr, 0, lo, lo + mol.n_atoms)
        losses.append(molecule_loss(model, mol, cfg, (ad.take_rows(energies, b), rows)))
        lo += mol.n_atoms
    return losses


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard Adam with externally supplied step size."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict):
        self.params = params
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict, lr: float) -> None:
        """One update; a non-finite gradient raises before anything changes."""
        for name in self.params:
            if not np.isfinite(grads[name]).all():
                raise ad.NonFiniteError(
                    f"non-finite gradient for parameter {name!r} at step {self.t + 1}")
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, tensor in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + self.EPS)


# ---------------------------------------------------------------------------
# synthetic Morse dataset


@dataclass
class SyntheticSpec:
    n_molecules: int = 600
    min_atoms: int = 4
    max_atoms: int = 8
    elements: tuple = (1, 6, 7, 8)
    box: float = 4.0
    min_distance: float = 0.8
    pair_params: dict | None = None   # (z_lo, z_hi) -> (well_depth, width, r_eq)

    def __post_init__(self):
        if self.min_atoms < 2 or self.max_atoms < self.min_atoms:
            raise ConfigError("bad atom count range")
        if self.pair_params is None:
            self.pair_params = default_morse_table(self.elements)


def default_morse_table(elements, seed: int = 12345) -> dict:
    """Deterministic per-element-pair Morse parameters with a broad spread of
    well depths, so composition carries a strong energy signal."""
    rng = np.random.default_rng(seed)
    table = {}
    for z1, z2 in itertools.combinations_with_replacement(sorted(elements), 2):
        table[(z1, z2)] = (rng.uniform(0.5, 2.0),   # well depth
                           rng.uniform(1.0, 1.6),   # width
                           rng.uniform(1.2, 1.8))   # equilibrium distance
    return table


def _pair(table: dict, z1: int, z2: int):
    key = (min(z1, z2), max(z1, z2))
    if key not in table:
        raise DataError(f"no Morse parameters for element pair {key}")
    return table[key]


def morse_energy_forces(numbers: np.ndarray, coords: np.ndarray,
                        table: dict) -> tuple[float, np.ndarray]:
    """Closed-form energy and physical forces (F = -grad E) of a Morse sum."""
    n = len(numbers)
    energy = 0.0
    forces = np.zeros((n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            d_e, a, r_e = _pair(table, numbers[i], numbers[j])
            rij = coords[j] - coords[i]
            r = np.linalg.norm(rij)
            x = np.exp(-a * (r - r_e))
            energy += d_e * (1.0 - x) ** 2 - d_e
            dv_dr = 2.0 * d_e * a * (1.0 - x) * x
            pair_force = -dv_dr * rij / r     # force on atom j
            forces[j] += pair_force
            forces[i] -= pair_force
    return float(energy), forces


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> Dataset:
    """Random small molecules with exactly consistent Morse labels."""
    rng = np.random.default_rng(seed)
    mols = []
    for _ in range(spec.n_molecules):
        n = int(rng.integers(spec.min_atoms, spec.max_atoms + 1))
        numbers = rng.choice(spec.elements, size=n)
        coords = random_coords(rng, n, spec.box, spec.min_distance)
        energy, forces = morse_energy_forces(numbers, coords, spec.pair_params)
        mols.append(Molecule(numbers, coords, energy=energy, forces=forces))
    return Dataset(molecules=mols, target_name="morse_energy")


# ---------------------------------------------------------------------------
# evaluation and the training loop


def training_splits(dataset: Dataset) -> list:
    """[train molecules, val molecules]; refuses an empty split (``ConfigError``)
    and a molecule without an energy label, by its index in the data (``DataError``)."""
    for split in ("train", "val"):
        if not dataset.subset(split):
            raise ConfigError(f"the {split} split is empty")
        for i in dataset.splits[split]:
            if dataset.molecules[i].energy is None:
                raise DataError(f"{split} split: molecule {i} has no energy label")
    return [dataset.subset("train"), dataset.subset("val")]


def energy_mae(model: GeoTModel, molecules) -> float:
    if not molecules:
        raise ConfigError("cannot evaluate on an empty set")
    errs = [abs(e - m.energy) for e, m in zip(model.energies(molecules), molecules)]
    return float(np.mean(errs))


def _batches(molecules: list, cfg: TrainConfig, rng: np.random.Generator):
    """Batches of ``cfg.batch_size`` molecules (the last of an epoch may be
    smaller) over ``cfg.max_epochs`` epochs, each in a fresh permutation."""
    for _epoch in range(cfg.max_epochs):
        order = rng.permutation(len(molecules))
        for lo in range(0, len(order), cfg.batch_size):
            yield [molecules[i] for i in order[lo:lo + cfg.batch_size]]


@dataclass
class TrainResult:
    metrics: list = field(default_factory=list)   # (step, split, metric, value)
    best_val_mae: float = np.inf
    best_checkpoint: bytes | None = None
    steps_run: int = 0
    stopped: str = "max_steps"     # also when the epochs run out

    def metrics_csv(self) -> str:
        lines = ["step,split,metric,value"]
        for step, split, metric, value in self.metrics:
            lines.append(f"{step},{split},{metric},{value:.17g}")
        return "\n".join(lines) + "\n"


def train(model: GeoTModel, dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Gradient-accumulation training with periodic validation and early
    stopping on validation energy MAE.

    A non-finite value ends the run with ``stopped="diverged"`` and keeps the
    best checkpoint.  If it arose in a training step (loss, gradient or
    activation), the parameters are those from before the failing step.  If
    it arose in a validation pass after step ``steps_run``, the parameters
    are those that step produced, i.e. the ones that failed validation."""
    train_mols, val_mols = training_splits(dataset)

    params = model.params()
    opt = Adam(params)
    rng = np.random.default_rng(cfg.seed)
    result = TrainResult()

    def evaluate(step: int) -> bool:
        """Validate, keep the checkpoint if it is the best; True if it is."""
        val = energy_mae(model, val_mols)
        result.metrics.append((step, "val", "energy_mae", val))
        if val < result.best_val_mae:
            result.best_val_mae = val
            result.best_checkpoint = checkpoint_bytes(model)
            return True
        return False

    def train_step(batch: list, step: int) -> float:
        """One optimiser step on the batch, one graph and one parameter sweep
        per group of it; returns its mean loss."""
        grads = {name: np.zeros_like(t.data) for name, t in params.items()}
        batch_loss = 0.0
        for group in groups(batch):
            total = None
            for loss in group_losses(model, group, cfg):
                batch_loss += loss.item()
                total = loss if total is None else ad.add(total, loss)
            for name, g in zip(params, ad.grad(total, params.values(),
                                               create_graph=False)):
                grads[name] += g.data
        batch_loss /= len(batch)
        if not np.isfinite(batch_loss):
            raise ad.NonFiniteError("non-finite training loss")
        for name in grads:
            grads[name] /= len(batch)
        opt.step(grads, lr_schedule(step, cfg))
        return batch_loss

    # the step-0 entry is the untrained model as initialized; the output
    # normalization below is the first act of training, not part of init
    evaluate(0)

    if cfg.normalize_targets:
        # composition baseline: least-squares per-element reference energies
        # plus an intercept, then scale by the residual spread.  Forces are
        # untouched (the baseline is constant per molecule), but the network
        # no longer has to learn composition offsets through the weakly
        # weighted energy term.
        energies = np.array([m.energy for m in train_mols])
        elements = sorted({int(z) for m in train_mols
                           for z in m.atomic_numbers})
        design = np.ones((len(train_mols), 1 + len(elements)))
        for col, z in enumerate(elements, start=1):
            design[:, col] = [np.sum(m.atomic_numbers == z) for m in train_mols]
        coef, *_ = np.linalg.lstsq(design, energies, rcond=None)
        residual = energies - design @ coef
        model.config.out_shift = float(coef[0])
        model.config.atom_refs = {str(z): float(c)
                                  for z, c in zip(elements, coef[1:])}
        model.config.out_scale = float(max(residual.std(), 1e-8))

    step = bad_evals = 0
    try:
        for step, batch in enumerate(_batches(train_mols, cfg, rng), start=1):
            train_loss = train_step(batch, step)
            if step % cfg.eval_every == 0:
                result.metrics.append((step, "train", "loss", train_loss))
                bad_evals = 0 if evaluate(step) else bad_evals + 1
                if bad_evals >= cfg.patience:
                    result.stopped = "early_stopping"
                    break
            if 0 < cfg.max_steps <= step:
                break
        if step % cfg.eval_every != 0:
            result.metrics.append((step, "train", "loss", train_loss))
            evaluate(step)
    except ad.NonFiniteError:
        result.stopped = "diverged"
    result.steps_run = step
    return result
