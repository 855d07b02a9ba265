import io

import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn import training
from geoattn.data import split_dataset
from geoattn.errors import ConfigError, DataError
from geoattn.geometry import BasisConfig, Molecule
from geoattn.model import GeoTModel, ModelConfig, load_checkpoint
from geoattn.training import (Adam, SyntheticSpec, TrainConfig, composite_loss,
                              default_morse_table, energy_mae,
                              generate_synthetic, lr_schedule,
                              molecule_loss, morse_energy_forces, train)
from conftest import numeric_grad, rel_err


def tiny_model(seed=0, **over):
    base = dict(n_layers=1, d_m=8, n_heads=2, d_h=16,
                basis=BasisConfig(n_basis=8), d_rbf=8, d_emb2=4)
    base.update(over)
    return GeoTModel.init(ModelConfig(**base), seed=seed)


def tiny_dataset(n=12, seed=0):
    spec = SyntheticSpec(n_molecules=n, min_atoms=3, max_atoms=4, box=4.0)
    return split_dataset(generate_synthetic(spec, seed=seed),
                         (0.75, 0.25, 0.0), seed=seed)


class TestSchedule:
    cfg = TrainConfig(lr=2e-4, warmup_steps=3000)

    def test_zero_at_zero(self):
        assert lr_schedule(0, self.cfg) == 0.0

    def test_half_warmup(self):
        assert lr_schedule(1500, self.cfg) == pytest.approx(1e-4, abs=1e-18)

    def test_after_one_decay_period(self):
        assert lr_schedule(200_000, self.cfg) == pytest.approx(1.9e-4, abs=1e-18)

    def test_flat_between_warmup_and_decay(self):
        assert lr_schedule(3000, self.cfg) == lr_schedule(100_000, self.cfg) == 2e-4

    def test_negative_step(self):
        with pytest.raises(ConfigError):
            lr_schedule(-1, self.cfg)


class TestLosses:
    def test_mae_hand_values(self):
        def mae(pred, target):
            return ad.mean(ad.absolute(ad.sub(pred, target)))

        x = ad.constant([1.0, 2.0, 3.0])
        assert mae(x, np.array([1.0, 1.0, 1.0])).item() == pytest.approx(1.0)
        assert mae(x, x.data).item() == 0.0

    def test_composite_toy_oracle(self):
        # E = x^2 at x = 3, labels E* = 4, dE*/dx = 1:
        # |9 - 4| + w|6 - 1| = 5 + 5w
        x = ad.parameter(3.0)
        e = ad.square(x)
        for w in (0.0, 1.0, 1000.0):
            loss = composite_loss(4.0, e, np.array(1.0), x, w)
            assert loss.item() == pytest.approx(5.0 + 5.0 * w, abs=1e-10)

    def test_composite_requires_force_labels(self):
        x = ad.parameter(1.0)
        with pytest.raises(ConfigError):
            composite_loss(0.0, ad.square(x), None, x, 1.0)

    def test_composite_parameter_gradient_vs_fd(self, rng):
        # double-backward check on the full model path
        model = tiny_model()
        mol = tiny_dataset(n=2).molecules[0]
        cfg = TrainConfig(force_weight=10.0)
        name, leaf = "w_pool", model.w_pool

        def value():
            return molecule_loss(model, mol, cfg).item()

        (g,) = ad.grad(molecule_loss(model, mol, cfg), [leaf])
        base = leaf.data.copy()
        num = np.zeros_like(base)
        h = 1e-6
        for idx in np.ndindex(*base.shape):
            leaf.data = base.copy(); leaf.data[idx] += h
            up = value()
            leaf.data = base.copy(); leaf.data[idx] -= h
            down = value()
            num[idx] = (up - down) / (2 * h)
        leaf.data = base
        assert rel_err(g.data, num) < 1e-4

    @pytest.mark.parametrize("kind", ["gaussian", "bessel", "linear"])
    def test_all_parameter_gradients_along_direction_vs_fd(self, kind):
        # double backward through every parameter of a 2-layer model
        model = tiny_model(seed=1, n_layers=2, basis=BasisConfig(kind=kind, n_basis=8))
        mol = tiny_dataset(n=2).molecules[0]
        cfg = TrainConfig(force_weight=10.0)
        params = model.params()
        rng = np.random.default_rng(7)
        direction = {k: rng.normal(size=t.shape) for k, t in params.items()}
        norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
        grads = ad.grad(molecule_loss(model, mol, cfg), params.values())
        analytic = sum(float(np.sum(g.data * direction[k])) / norm
                       for k, g in zip(params, grads))
        base = {k: t.data.copy() for k, t in params.items()}

        def loss_at(step):
            for k, t in params.items():
                t.data = base[k] + step * direction[k] / norm
            return molecule_loss(model, mol, cfg).item()

        h = 1e-6
        numeric = (loss_at(h) - loss_at(-h)) / (2 * h)
        assert abs(numeric - analytic) / abs(analytic) < 1e-5

    @pytest.mark.parametrize("kind, mode, attn_scale", [
        ("gaussian", "plain", False), ("gaussian", "atom_aware", False),
        ("bessel", "plain", False), ("bessel", "atom_aware", False),
        ("linear", "plain", False), ("linear", "atom_aware", False),
        ("gaussian", "atom_aware", True)])
    def test_each_parameter_array_along_its_own_direction_vs_fd(self, kind, mode, attn_scale):
        # double backward, one random direction per parameter array, each
        # against its own central difference, so that an error confined to
        # one path cannot hide among the others.  The 48 Gaussian centers,
        # 0.1 Å apart, span the molecule's distances (2.55-5.17 Å).
        model = tiny_model(seed=1, n_layers=2, kernel_mode=mode, use_attn_scale=attn_scale,
                           basis=BasisConfig(kind=kind, n_basis=48))
        if attn_scale:
            for layer in model.layers:
                layer.attn.w_a.data = np.array(0.3)     # AttnScale is the identity at 0
        mol = tiny_dataset(n=2).molecules[0]
        cfg = TrainConfig(force_weight=10.0)
        params = model.params()
        grads = ad.grad(molecule_loss(model, mol, cfg), params.values())
        rng = np.random.default_rng(4)
        h = 1e-6
        for (name, leaf), g in zip(params.items(), grads):
            d = rng.normal(size=leaf.shape)
            d /= np.sqrt(np.sum(d * d))
            analytic = float(np.sum(g.data * d))    # at least 0.014 in every case
            base = leaf.data
            leaf.data = base + h * d
            up = molecule_loss(model, mol, cfg).item()
            leaf.data = base - h * d
            down = molecule_loss(model, mol, cfg).item()
            leaf.data = base
            assert abs((up - down) / (2 * h) - analytic) < 1e-5 * abs(analytic), name

    def test_energy_only_loss_when_forces_disabled(self):
        model = tiny_model()
        mol = tiny_dataset(n=2).molecules[0]
        loss = molecule_loss(model, mol, TrainConfig(use_forces=False))
        assert loss.item() == pytest.approx(abs(model.energy(mol) - mol.energy),
                                            abs=1e-10)

    def test_unlabeled_molecule_rejected(self):
        model = tiny_model()
        mol = Molecule([1, 1], [[0, 0, 0], [1, 0, 0]])
        with pytest.raises(DataError):
            molecule_loss(model, mol, TrainConfig(use_forces=False))

    def test_unlabeled_molecule_with_forces_rejected(self):
        # the force branch checks the energy label too, instead of subtracting None
        mol = Molecule([1, 1], [[0, 0, 0], [1, 0, 0]], forces=np.zeros((2, 3)))
        with pytest.raises(DataError, match="no energy label"):
            molecule_loss(tiny_model(), mol, TrainConfig(use_forces=True))


class TestAdam:
    def test_first_step_magnitude(self, rng):
        # with bias correction the first update is lr * g/|g| elementwise
        p = ad.parameter(rng.uniform(-1, 1, 5))
        opt = Adam({"p": p})
        before = p.data.copy()
        g = rng.uniform(0.5, 2.0, 5)
        opt.step({"p": g}, lr=0.01)
        np.testing.assert_allclose(before - p.data, 0.01 * np.sign(g), rtol=1e-6)

    def test_two_step_recursion_oracle(self):
        p = ad.parameter(np.zeros(1))
        opt = Adam({"p": p})
        g1, g2, lr = 0.3, -0.2, 0.1
        opt.step({"p": np.array([g1])}, lr)
        opt.step({"p": np.array([g2])}, lr)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 ** 2) + 0.001 * g2 ** 2
        m_hat = m / (1 - 0.9 ** 2)
        v_hat = v / (1 - 0.999 ** 2)
        step1 = -lr * g1 / (abs(g1) + 1e-8)
        want = step1 - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p.data[0] == pytest.approx(want, rel=1e-9)

    def test_nonfinite_gradient_rejected(self):
        p = ad.parameter(np.zeros(2))
        opt = Adam({"p": p})
        with pytest.raises(ad.NonFiniteError):
            opt.step({"p": np.array([1.0, np.nan])}, 0.1)

    def test_nonfinite_gradient_changes_nothing(self):
        p = ad.parameter(np.ones(2))
        q = ad.parameter(np.ones(2))
        opt = Adam({"p": p, "q": q})
        with pytest.raises(ad.NonFiniteError, match="'q'"):
            opt.step({"p": np.array([1.0, 1.0]), "q": np.array([1.0, np.inf])}, 0.1)
        np.testing.assert_array_equal(p.data, [1.0, 1.0])
        np.testing.assert_array_equal(opt.m["p"], [0.0, 0.0])
        assert opt.t == 0


class TestMorseOracle:
    table = default_morse_table((1, 6, 7, 8))

    def test_pair_minimum(self):
        d_e, a, r_e = self.table[(1, 6)]
        e, f = morse_energy_forces(np.array([1, 6]),
                                   np.array([[0.0, 0, 0], [r_e, 0, 0]]),
                                   self.table)
        assert e == pytest.approx(-d_e, abs=1e-12)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_forces_sum_to_zero_exactly(self, rng):
        numbers = np.array([1, 6, 7, 8, 6])
        coords = rng.uniform(0, 4, (5, 3))
        _, f = morse_energy_forces(numbers, coords, self.table)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-13)

    def test_forces_match_finite_differences(self, rng):
        numbers = np.array([1, 6, 8])
        coords = rng.uniform(0, 3, (3, 3))

        def e_of(c):
            return morse_energy_forces(numbers, c, self.table)[0]

        _, f = morse_energy_forces(numbers, coords, self.table)
        (n,) = numeric_grad(e_of, [coords], h=1e-6)
        assert rel_err(f, -n) < 1e-8

    def test_unknown_pair(self):
        with pytest.raises(DataError):
            morse_energy_forces(np.array([1, 2]),
                                np.array([[0.0, 0, 0], [1.0, 0, 0]]), self.table)


class TestSynthetic:
    def test_generation_respects_spec(self):
        spec = SyntheticSpec(n_molecules=20, min_atoms=3, max_atoms=5)
        ds = generate_synthetic(spec, seed=0)
        assert len(ds) == 20
        for m in ds.molecules:
            assert 3 <= m.n_atoms <= 5
            assert m.energy is not None and m.forces is not None
            d = np.linalg.norm(m.coords[:, None] - m.coords[None], axis=-1)
            off = d[~np.eye(m.n_atoms, dtype=bool)]
            assert off.min() >= spec.min_distance

    def test_labels_consistent(self, rng):
        spec = SyntheticSpec(n_molecules=3)
        ds = generate_synthetic(spec, seed=1)
        for m in ds.molecules:
            e, f = morse_energy_forces(m.atomic_numbers, m.coords,
                                       spec.pair_params)
            assert m.energy == e
            np.testing.assert_array_equal(m.forces, f)

    def test_seed_determinism(self):
        spec = SyntheticSpec(n_molecules=5)
        a = generate_synthetic(spec, seed=7)
        b = generate_synthetic(spec, seed=7)
        for ma, mb in zip(a.molecules, b.molecules):
            np.testing.assert_array_equal(ma.coords, mb.coords)

    def test_dense_molecules_placed_atom_by_atom(self):
        # with seed 0 all 200 whole-molecule draws of the first molecule (70
        # atoms) fail, so it is placed atom by atom; the others are drawn whole
        spec = SyntheticSpec(n_molecules=3, min_atoms=56, max_atoms=72, box=9.0)
        ds = generate_synthetic(spec, seed=0)
        for m in ds.molecules:
            assert 56 <= m.n_atoms <= 72
            assert np.all((m.coords >= 0) & (m.coords <= spec.box))
            d = np.linalg.norm(m.coords[:, None] - m.coords[None], axis=-1)
            assert d[~np.eye(m.n_atoms, dtype=bool)].min() >= spec.min_distance
            e, f = morse_energy_forces(m.atomic_numbers, m.coords, spec.pair_params)
            assert m.energy == e
            np.testing.assert_array_equal(m.forces, f)

    def test_impossible_packing_rejected(self):
        spec = SyntheticSpec(n_molecules=1, min_atoms=8, max_atoms=8,
                             box=1.0, min_distance=2.0)
        with pytest.raises(DataError):
            generate_synthetic(spec, seed=0)


class TestTrainLoop:
    def test_zero_lr_changes_nothing(self):
        model = tiny_model()
        before = {k: t.data.copy() for k, t in model.params().items()}
        data = tiny_dataset()
        cfg = TrainConfig(lr=1e-30, batch_size=4, max_steps=3, eval_every=1,
                          normalize_targets=False, warmup_steps=1)
        res = train(model, data, cfg)
        for k, t in model.params().items():
            assert np.max(np.abs(t.data - before[k])) < 1e-20
        vals = [v for _, s, _, v in res.metrics if s == "val"]
        assert max(vals) - min(vals) < 1e-12

    def test_descent_on_tiny_problem(self):
        model = tiny_model()
        data = tiny_dataset(n=12)
        cfg = TrainConfig(lr=3e-3, warmup_steps=10, batch_size=4,
                          max_steps=60, eval_every=10, patience=100,
                          force_weight=1.0)
        res = train(model, data, cfg)
        init = res.metrics[0][3]
        assert res.best_val_mae < init

    def test_metrics_csv_shape(self):
        model = tiny_model()
        res = train(model, tiny_dataset(), TrainConfig(
            batch_size=4, max_steps=4, eval_every=2, patience=100))
        lines = res.metrics_csv().strip().splitlines()
        assert lines[0] == "step,split,metric,value"
        assert all(len(l.split(",")) == 4 for l in lines[1:])

    def test_best_checkpoint_resumes_deterministically(self):
        data = tiny_dataset()
        cfg = TrainConfig(batch_size=4, max_steps=6, eval_every=3,
                          patience=100, seed=3)
        res = train(tiny_model(seed=2), data, cfg)
        assert res.best_checkpoint is not None
        m1 = load_checkpoint(io.BytesIO(res.best_checkpoint))
        m2 = load_checkpoint(io.BytesIO(res.best_checkpoint))
        mol = data.molecules[0]
        l1 = molecule_loss(m1, mol, cfg).item()
        l2 = molecule_loss(m2, mol, cfg).item()
        assert l1 == l2

    def test_nonfinite_forward_ends_diverged(self, monkeypatch):
        model = tiny_model()
        inner = training.molecule_loss
        calls, before = [], {}

        def faulty(net, mol, cfg):
            calls.append(1)
            if len(calls) == 5:          # first molecule of step 2
                net.layers[0].ffn_b1.data[0] = np.inf
                before.update({k: t.data.copy() for k, t in net.params().items()})
            return inner(net, mol, cfg)

        monkeypatch.setattr(training, "molecule_loss", faulty)
        res = train(model, tiny_dataset(), TrainConfig(
            batch_size=4, max_steps=3, eval_every=1, patience=100))
        assert res.stopped == "diverged"
        assert res.best_checkpoint is not None
        assert before
        for k, t in model.params().items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_empty_training_set(self):
        model = tiny_model()
        ds = tiny_dataset()
        ds.splits["train"] = np.array([], dtype=int)
        with pytest.raises(ConfigError):
            train(model, ds, TrainConfig())

    @pytest.mark.parametrize("eval_every", [1, 100],
                             ids=["periodic_eval", "final_eval"])
    def test_nonfinite_validation_ends_diverged(self, monkeypatch, eval_every):
        # lr 1e300: step 1 is finite, but the parameters it leaves make the
        # validation pass after it (periodic or final) non-finite
        model = tiny_model()
        inner = training.Adam.step
        after = {}

        def step_and_record(opt, grads, lr):
            inner(opt, grads, lr)
            after.update({k: t.data.copy() for k, t in opt.params.items()})

        monkeypatch.setattr(training.Adam, "step", step_and_record)
        res = train(model, tiny_dataset(), TrainConfig(
            lr=1e300, batch_size=4, max_steps=1, eval_every=eval_every,
            patience=100))
        assert res.stopped == "diverged"
        assert res.steps_run == 1
        assert [m[:2] for m in res.metrics] == [(0, "val"), (1, "train")]
        assert res.best_checkpoint is not None
        assert after
        for k, t in model.params().items():
            np.testing.assert_array_equal(t.data, after[k])

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_split_names_it(self, split):
        ds = tiny_dataset()
        ds.splits[split] = np.array([], dtype=int)
        with pytest.raises(ConfigError, match=f"the {split} split is empty"):
            train(tiny_model(), ds, TrainConfig())

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_unlabeled_molecule_names_split_and_index(self, split):
        ds = tiny_dataset()
        i = int(ds.splits[split][0])
        ds.molecules[i].energy = None
        with pytest.raises(DataError, match=f"{split} split: molecule {i} has no energy label"):
            train(tiny_model(), ds, TrainConfig())

    def test_energy_mae_empty(self):
        with pytest.raises(ConfigError):
            energy_mae(tiny_model(), [])


class TestCompositionBaseline:
    def test_lstsq_recovers_linear_counts(self, rng):
        # energies exactly 3 + 2*n_H should be absorbed by the baseline
        from geoattn.data import Dataset
        mols = []
        for n in (2, 3, 4, 5, 2, 3, 4, 5):
            coords = rng.uniform(0, 4, (n, 3)) + np.arange(n)[:, None] * 5
            mols.append(Molecule([1] * n, coords, energy=3.0 + 2.0 * n,
                                 forces=np.zeros((n, 3))))
        ds = Dataset(mols, splits={"train": np.arange(6),
                                   "val": np.arange(6, 8)})
        model = tiny_model()
        train(model, ds, TrainConfig(lr=1e-30, batch_size=6, max_steps=1,
                                     eval_every=1, warmup_steps=1))
        assert model.config.out_shift == pytest.approx(3.0, abs=1e-8)
        assert model.config.atom_refs["1"] == pytest.approx(2.0, abs=1e-8)
        # perfectly explained targets leave only the floored scale
        assert model.config.out_scale == pytest.approx(1e-8)

    def test_baseline_does_not_change_forces(self, rng):
        model = tiny_model()
        mol = tiny_dataset(n=2).molecules[0]
        f0 = model.forces(mol)
        model.config.atom_refs = {"1": 5.0, "6": -3.0, "7": 1.0, "8": 0.5}
        model.config.out_shift = 11.0
        np.testing.assert_array_equal(model.forces(mol), f0)
