"""The benchmark's workloads: inputs made from the seed, one timed round,
and correctness checks made apart from the program.

Every workload is a closed loop with one client: the next optimiser step or
molecule starts only after the previous one finished, the way ``train()`` and
a step-by-step force loop, as in molecular dynamics, call the model.  A round
repeats exactly the same operations, so every run attempts whole rounds.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geoattn import autodiff as ad
from geoattn import cli, training
from geoattn.data import Dataset, parse_xyz_frames, write_xyz_frames
from geoattn.geometry import BasisConfig, Molecule
from geoattn.model import GeoTModel, ModelConfig, load_checkpoint, save_checkpoint

# the 2-layer, d_m 32 architecture of the learning acceptance tests
SMALL_ARCH = dict(n_layers=2, d_m=32, n_heads=4, d_h=64,
                  basis=BasisConfig(n_basis=64), d_rbf=32, d_emb2=16)
# one element with a smooth, deep well, as in the learning tests, so the
# force error drops within a few dozen steps
SMALL_TABLE = {(6, 6): (2.0, 0.7, 1.6)}
ELEMENTS = (1, 6, 7, 8)
DENSITY = 0.09          # atoms per cubic Angstrom, an ordinary molecular density
MIN_DISTANCE = 0.8
MODEL_SEED = 1


# ---------------------------------------------------------------------------
# inputs and independent references

def place_atoms(rng: np.random.Generator, n: int) -> np.ndarray:
    """Atoms placed one at a time in a cube of density DENSITY, each redrawn
    until it keeps MIN_DISTANCE from those already placed."""
    box = (n / DENSITY) ** (1.0 / 3.0)
    coords = np.empty((n, 3))
    for i in range(n):
        for _ in range(10_000):
            c = rng.uniform(0.0, box, 3)
            if i == 0 or np.min(np.linalg.norm(coords[:i] - c, axis=1)) >= MIN_DISTANCE:
                coords[i] = c
                break
        else:
            raise RuntimeError(f"could not place atom {i} of {n}")
    return coords


def make_molecules(rng: np.random.Generator, sizes, table=None) -> list[Molecule]:
    """Molecules of the given sizes; labelled by the program's Morse sum when
    a pair table is given."""
    mols = []
    for n in sizes:
        numbers = rng.choice(ELEMENTS, size=n)
        coords = place_atoms(rng, n)
        if table is None:
            mols.append(Molecule(numbers, coords))
            continue
        energy, forces = training.morse_energy_forces(numbers, coords, table)
        mols.append(Molecule(numbers, coords, energy=energy, forces=forces))
    return mols


def morse_reference(numbers: np.ndarray, coords: np.ndarray, table: dict):
    """Energy and physical forces of a pairwise Morse sum, in numpy."""
    i, j = np.triu_indices(len(numbers), 1)
    zi, zj = numbers[i], numbers[j]
    d_e, a, r_e = np.array([table[(min(p, q), max(p, q))]
                            for p, q in zip(zi, zj)]).T
    rij = coords[j] - coords[i]
    r = np.linalg.norm(rij, axis=1)
    x = np.exp(-a * (r - r_e))
    energy = np.sum(d_e * (1.0 - x) ** 2 - d_e)
    f_j = -(2.0 * d_e * a * (1.0 - x) * x / r)[:, None] * rij
    forces = np.zeros_like(coords)
    np.add.at(forces, j, f_j)
    np.add.at(forces, i, -f_j)
    return energy, forces


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit_direction(rng: np.random.Generator, shape) -> np.ndarray:
    d = rng.normal(size=shape)
    return d / np.linalg.norm(d)


def force_mae(model: GeoTModel, mols) -> float:
    """Mean absolute error of predicted physical forces against the labels."""
    sign = -1.0 if model.config.force_sign == "paper" else 1.0
    return float(np.mean([np.mean(np.abs(sign * model.forces(m) - m.forces))
                          for m in mols]))


def energy_mae(model: GeoTModel, mols) -> float:
    return float(np.mean([abs(model.energy(m) - m.energy) for m in mols]))


@dataclass
class Round:
    seconds: float      # wall time of the timed call
    ops: int            # optimiser steps or molecules attempted
    molecules: int
    output: object


# ---------------------------------------------------------------------------
# training workloads

class TrainWorkload:
    """``geoattn.training.train`` on Morse molecules; an op is one optimiser
    step.  A round trains a freshly initialised model for ``steps`` steps on
    the same data, so every round does the same arithmetic."""

    op_unit = "step"

    def __init__(self, arch: dict, data, n_val: int, steps: int,
                 eval_every: int, lr: float, must_learn: bool):
        self.arch = arch
        self.data = data            # seed -> (molecules, Morse pair table)
        self.n_val = n_val
        self.steps = steps
        self.eval_every = eval_every
        self.lr = lr
        self.must_learn = must_learn
        self.batch = 4

    def setup(self, seed: int, workdir: Path) -> dict:
        mols, table = self.data(seed)
        n_train = self.steps * self.batch
        if len(mols) != n_train + self.n_val:
            raise ValueError("data must hold one epoch of training molecules "
                             "followed by the validation molecules")
        dataset = Dataset(molecules=mols, target_name="morse_energy",
                          splits={"train": np.arange(n_train),
                                  "val": np.arange(n_train, len(mols))})
        state = {"seed": seed, "dataset": dataset, "table": table,
                 "config": training.TrainConfig(
                     lr=self.lr, warmup_steps=5, batch_size=self.batch,
                     max_steps=self.steps, eval_every=self.eval_every,
                     patience=100, seed=seed)}
        warm = self.new_model()
        training.train(warm, dataset, training.TrainConfig(
            batch_size=self.batch, max_steps=1, eval_every=self.eval_every))
        return state

    def new_model(self) -> GeoTModel:
        return GeoTModel.init(ModelConfig(**self.arch), seed=MODEL_SEED)

    def run_round(self, state: dict) -> Round:
        model = self.new_model()
        losses: list[float] = []
        inner = training.molecule_loss

        def recorded(*args, **kwargs):
            loss = inner(*args, **kwargs)
            losses.append(loss.item())
            return loss

        training.molecule_loss = recorded
        try:
            t0 = time.perf_counter()
            result = training.train(model, state["dataset"], state["config"])
            seconds = time.perf_counter() - t0
        finally:
            training.molecule_loss = inner
        state["trained"] = model
        return Round(seconds, self.steps, self.steps * self.batch,
                     (result.steps_run, result.stopped, losses))

    def stats_molecules(self, state: dict):
        return state["dataset"].subset("val")[:4]

    def stats_loss(self, model: GeoTModel, mol: Molecule, state: dict):
        return training.molecule_loss(model, mol, state["config"])

    def check(self, state: dict, rounds: list[Round]) -> tuple[list, dict]:
        checks = []
        dataset, table = state["dataset"], state["table"]
        worst = 0.0
        for m in dataset.molecules:
            e, f = morse_reference(m.atomic_numbers, m.coords, table)
            worst = max(worst, abs(e - m.energy) / (1.0 + abs(e)),
                        float(np.max(np.abs(f - m.forces))) / (1.0 + float(np.max(np.abs(f)))))
        checks.append(("morse_labels", worst < 1e-9, f"max rel diff {worst:.2e}"))

        rel = self._loss_gradcheck(state)
        checks.append(("step0_param_gradient_fd", rel < 1e-5,
                       f"directional derivative rel err {rel:.2e}"))

        expect = self.steps * self.batch
        first = rounds[0].output[2]
        finite = all(np.all(np.isfinite(r.output[2])) and len(r.output[2]) == expect
                     for r in rounds)
        checks.append(("losses_finite", finite,
                       f"{expect} molecule losses per round, all finite"))
        steps_ok = all(r.output[0] == self.steps and r.output[1] == "max_steps"
                       for r in rounds)
        checks.append(("steps_run", steps_ok, f"{self.steps} steps per round"))
        same = all(r.output[2] == first for r in rounds)
        checks.append(("rounds_identical", same, "every round gives the same losses"))

        val = dataset.subset("val")
        untrained = self.new_model()
        trained = state["trained"]
        maes = {"val_energy_mae_untrained": energy_mae(untrained, val),
                "val_force_mae_untrained": force_mae(untrained, val),
                "val_energy_mae": energy_mae(trained, val),
                "val_force_mae": force_mae(trained, val)}
        if self.must_learn:
            # the force error, which carries 1000x the weight in the loss;
            # after 25 steps the energy error still swings by a factor of 20
            # across seeds, up to 0.8 of the untrained model's
            checks.append(("learns",
                           maes["val_force_mae"] < maes["val_force_mae_untrained"],
                           "val force MAE {val_force_mae_untrained:.4g} -> "
                           "{val_force_mae:.4g}".format(**maes)))
        return checks, maes

    def _loss_gradcheck(self, state: dict, h: float = 1e-6) -> float:
        """Double-backward parameter gradient of the step-0 loss along a
        random direction, against central finite differences of the loss."""
        model = self.new_model()
        mol = min(state["dataset"].subset("train"), key=lambda m: m.n_atoms)
        params = model.params()
        rng = np.random.default_rng(state["seed"] + 1)
        direction = {k: rng.normal(size=t.shape) for k, t in params.items()}
        norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
        loss = training.molecule_loss(model, mol, state["config"])
        grads = ad.grad(loss, params.values())
        analytic = sum(float(np.sum(g.data * direction[k] / norm))
                       for k, g in zip(params, grads))
        base = {k: t.data.copy() for k, t in params.items()}

        def loss_at(step: float) -> float:
            for k, t in params.items():
                t.data = base[k] + step * direction[k] / norm
            return training.molecule_loss(model, mol, state["config"]).item()

        numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
        return abs(numeric - analytic) / max(abs(analytic), 1e-12)


# ---------------------------------------------------------------------------
# force inference through the CLI

class ForcesWorkload:
    """In-process ``geoattn forces ckpt xyz --out ...`` on a multi-frame
    extended-XYZ file; an op is one molecule."""

    op_unit = "molecule"

    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        mols = make_molecules(np.random.default_rng(seed), self.sizes)
        model = self.new_model()
        ckpt, xyz, out = workdir / "model.npz", workdir / "in.xyz", workdir / "out.xyz"
        save_checkpoint(model, ckpt)
        xyz.write_text(write_xyz_frames(mols))
        state = {"seed": seed, "mols": mols, "ckpt": ckpt, "out": out,
                 "argv": ["forces", str(ckpt), str(xyz), "--out", str(out)]}
        # warm-up: one whole round; a lighter one leaves the first timed
        # round about a third slower while the heap grows
        self.run_round(state)
        return state

    def run_round(self, state: dict) -> Round:
        t0 = time.perf_counter()
        code = cli.main(state["argv"])
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"geoattn forces exited with {code}")
        n = len(self.sizes)
        return Round(seconds, n, n, state["out"].read_text())

    def new_model(self) -> GeoTModel:
        return GeoTModel.init(ModelConfig(), seed=MODEL_SEED)

    def stats_molecules(self, state: dict):
        return state["mols"][::2]

    stats_loss = None

    def check(self, state: dict, rounds: list[Round]) -> tuple[list, dict]:
        checks = []
        text = rounds[0].output
        checks.append(("rounds_identical", all(r.output == text for r in rounds),
                       "every round writes the same file"))
        out = parse_xyz_frames(text)
        mols = state["mols"]
        same = len(out) == len(mols) and all(
            np.array_equal(o.atomic_numbers, m.atomic_numbers)
            and np.array_equal(o.coords, m.coords) for o, m in zip(out, mols))
        checks.append(("xyz_round_trip", same, "atoms and coordinates bit-identical"))
        if not same:
            return checks, {}

        model = load_checkpoint(state["ckpt"])
        rng = np.random.default_rng(state["seed"] + 1)
        fd_err = net = rot = 0.0
        h = 1e-4
        for o, m in zip(out, mols):
            gc.collect()
            u = unit_direction(rng, m.coords.shape)
            plus = model.energy(Molecule(m.atomic_numbers, m.coords + h * u))
            minus = model.energy(Molecule(m.atomic_numbers, m.coords - h * u))
            numeric = (plus - minus) / (2.0 * h)
            analytic = float(np.sum(o.forces * u))     # paper sign: F = +dE/dr
            fd_err = max(fd_err, abs(numeric - analytic) / max(abs(analytic), 1e-3))
            net = max(net, float(np.max(np.abs(o.forces.sum(axis=0))))
                      / float(np.max(np.abs(o.forces))))
            turned = model.energy(Molecule(m.atomic_numbers,
                                           m.coords @ random_rotation(rng).T))
            rot = max(rot, abs(turned - o.energy) / (1.0 + abs(o.energy)))
        checks.append(("directional_derivative_fd", fd_err < 1e-6,
                       f"max rel err {fd_err:.2e}"))
        checks.append(("net_force_zero", net < 1e-10,
                       f"max |sum F| / max |F| {net:.2e}"))
        checks.append(("rotation_invariant_energy", rot < 1e-10,
                       f"max rel energy change {rot:.2e}"))
        return checks, {}


def small_data(seed: int):
    """Desk-scale molecules from the program's own ``generate_synthetic``:
    100 training molecules (25 steps of 4) and 16 validation molecules."""
    data = training.generate_synthetic(training.SyntheticSpec(
        n_molecules=116, min_atoms=4, max_atoms=8, box=4.0, elements=(6,),
        pair_params=SMALL_TABLE), seed=seed)
    return data.molecules, SMALL_TABLE


def mid_data(seed: int):
    """Mixed sizes 24-40, fixed per position so that every seed does the same
    amount of pair work; 8 training and 4 validation molecules."""
    table = training.default_morse_table(ELEMENTS)
    sizes = (24, 26, 29, 31, 33, 35, 38, 40) + (24, 29, 35, 40)
    return make_molecules(np.random.default_rng(seed), sizes, table), table


WORKLOADS = {
    "train-morse-small": TrainWorkload(SMALL_ARCH, small_data, n_val=16, steps=25,
                                       eval_every=10, lr=1e-3, must_learn=True),
    "forces-large": ForcesWorkload(sizes=(48, 59, 69, 80)),
    "train-mid": TrainWorkload({}, mid_data, n_val=4, steps=2, eval_every=2,
                               lr=1e-3, must_learn=False),
}
