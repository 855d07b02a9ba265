import io

import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn import training
from geoattn.data import Dataset, split_dataset
from geoattn.errors import ConfigError, DataError
from geoattn.geometry import BasisConfig, Molecule, random_coords
from geoattn.model import GeoTModel, ModelConfig, checkpoint_bytes, groups, load_checkpoint
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
            err = ad.absolute(ad.sub(pred, target))
            return ad.mul(ad.tensor_sum(err), 1.0 / err.size)

        x = ad.constant([1.0, 2.0, 3.0])
        assert mae(x, np.array([1.0, 1.0, 1.0])).item() == pytest.approx(1.0)
        assert mae(x, x.data).item() == 0.0

    def test_composite_toy_oracle(self):
        # E = x^2 at x = 3, labels E* = 4, dE*/dx = 1:
        # |9 - 4| + w|6 - 1| = 5 + 5w
        x = ad.parameter(3.0)
        e = ad.square(x)
        for w in (0.0, 1.0, 1000.0):
            (de_dx,) = ad.grad(e, [x])
            loss = composite_loss(4.0, e, np.array(1.0), de_dr=de_dx, weight=w)
            assert loss.item() == pytest.approx(5.0 + 5.0 * w, abs=1e-10)

    def test_composite_requires_force_labels(self):
        x = ad.parameter(1.0)
        with pytest.raises(ConfigError):
            composite_loss(0.0, ad.square(x), None, de_dr=x, weight=1.0)

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

    @pytest.mark.parametrize("kind, mode, variant", [
        ("gaussian", "plain", "plain"), ("gaussian", "atom_aware", "plain"),
        ("bessel", "plain", "plain"), ("bessel", "atom_aware", "plain"),
        ("linear", "plain", "plain"), ("linear", "atom_aware", "plain"),
        ("gaussian", "atom_aware", "attn_scale"), ("gaussian", "atom_aware", "softmax")])
    def test_recorded_parameter_gradients_are_those_training_uses(self, kind, mode, variant):
        # the oracles above differentiate with create_graph=True; train_step
        # runs the sweep without a graph, which must give the same bits
        extra = {"plain": {}, "attn_scale": {"use_attn_scale": True},
                 "softmax": {"use_softmax_baseline": True}}[variant]
        model = tiny_model(seed=1, n_layers=2, kernel_mode=mode,
                           basis=BasisConfig(kind=kind, n_basis=48), **extra)
        for layer in model.layers:
            if layer.attn.w_a is not None:
                layer.attn.w_a.data = np.array(0.3)
        mol = tiny_dataset(n=2).molecules[0]
        loss = molecule_loss(model, mol, TrainConfig(force_weight=10.0))
        params = list(model.params().values())
        recorded = ad.grad(loss, params, create_graph=True)
        plain = ad.grad(loss, params, create_graph=False)
        for a, b in zip(recorded, plain):
            assert not b.requires_grad
            np.testing.assert_array_equal(a.data, b.data)

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
        opt.step(g, lr=0.01)
        np.testing.assert_allclose(before - p.data, 0.01 * np.sign(g), rtol=1e-6)

    def test_two_step_recursion_oracle(self):
        p = ad.parameter(np.zeros(1))
        opt = Adam({"p": p})
        g1, g2, lr = 0.3, -0.2, 0.1
        opt.step(np.array([g1]), lr)
        opt.step(np.array([g2]), lr)
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
            opt.step(np.array([1.0, np.nan]), 0.1)

    def test_nonfinite_gradient_changes_nothing(self):
        p = ad.parameter(np.ones(2))
        q = ad.parameter(np.ones(2))
        opt = Adam({"p": p, "q": q})
        with pytest.raises(ad.NonFiniteError, match="'q'"):
            opt.step(np.array([1.0, 1.0, 1.0, np.inf]), 0.1)
        np.testing.assert_array_equal(p.data, [1.0, 1.0])
        np.testing.assert_array_equal(opt.m["p"], [0.0, 0.0])
        assert opt.t == 0


    def test_flat_step_is_the_per_parameter_update_bit_for_bit(self, rng):
        shapes = {"b": (), "p": (3,), "w": (2, 4)}     # the default b_out is 0-d
        params = {k: ad.parameter(rng.normal(size=s)) for k, s in shapes.items()}
        opt = Adam(params)
        want = {k: t.data.copy() for k, t in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, lr in enumerate([1e-3, 0.03, 0.7], start=1):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3, size=s)
                     for k, s in shapes.items()}
            grads["w"][0, 0] = -0.0
            opt.step(np.concatenate([g.reshape(-1) for g in grads.values()]), lr)
            for k, g in grads.items():     # one parameter at a time, as numpy computes it
                m[k] += (1 - b1) * (g - m[k])
                v[k] += (1 - b2) * (g * g - v[k])
                m_hat = m[k] / (1 - b1 ** t)
                v_hat = v[k] / (1 - b2 ** t)
                want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert params[k].shape == shapes[k]
                assert params[k].data.tobytes() == want[k].tobytes(), (t, k)
                assert opt.m[k].tobytes() == m[k].tobytes()
                assert opt.v[k].tobytes() == v[k].tobytes()

    def test_step_replaces_each_array_and_leaves_the_old_one_unchanged(self, rng):
        params = {"b": ad.parameter(1.0), "w": ad.parameter(rng.normal(size=(2, 3)))}
        opt = Adam(params)
        for _ in range(2):      # the second step replaces arrays the first made
            old = {k: t.data for k, t in params.items()}
            kept = {k: a.copy() for k, a in old.items()}
            opt.step(rng.normal(size=7), 0.1)
            for k, t in params.items():
                assert not np.shares_memory(t.data, old[k])
                np.testing.assert_array_equal(old[k], kept[k])
                assert not np.array_equal(t.data, kept[k])

    def test_arrays_a_step_hands_out_are_read_only(self, rng):
        params = {"b": ad.parameter(1.0), "w": ad.parameter(rng.normal(size=(2, 3)))}
        Adam(params).step(rng.normal(size=7), 0.1)
        for t in params.values():
            with pytest.raises(ValueError, match="read-only"):
                t.data[...] = np.inf
            assert np.isfinite(t.data).all()


class TestBestCheckpoint:
    """``train`` returns the bytes ``checkpoint_bytes`` gave at the best
    evaluation, though it serializes once, when it returns."""

    @staticmethod
    def run(monkeypatch, cfg, lr_at=None):
        inner = training.energy_mae
        seen = []

        def recorded(model, molecules):
            val = inner(model, molecules)
            seen.append((val, checkpoint_bytes(model)))
            return val

        monkeypatch.setattr(training, "energy_mae", recorded)
        if lr_at is not None:
            monkeypatch.setattr(training, "lr_schedule", lr_at)
        model = tiny_model()
        res = train(model, tiny_dataset(), cfg)
        best = int(np.argmin([val for val, _ in seen]))      # the first of equals
        assert res.best_val_mae == seen[best][0]
        assert res.best_checkpoint == seen[best][1]
        return res, best, model

    def test_best_at_step_zero_has_the_config_before_normalization(self, monkeypatch):
        res, best, model = self.run(monkeypatch, TrainConfig(
            lr=1.0, warmup_steps=1, batch_size=4, max_steps=4, eval_every=1, patience=100))
        assert (best, res.steps_run) == (0, 4)
        saved = load_checkpoint(io.BytesIO(res.best_checkpoint)).config
        assert (saved.out_shift, saved.out_scale) == (0.0, 1.0)
        assert (model.config.out_shift, model.config.out_scale) != (0.0, 1.0)

    def test_best_at_a_later_step(self, monkeypatch):
        res, best, _ = self.run(monkeypatch, TrainConfig(
            lr=0.1, warmup_steps=1, batch_size=4, max_steps=6, eval_every=1, patience=100))
        assert (best, res.steps_run, res.stopped) == (2, 6, "max_steps")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")     # inf/NaN on purpose
    def test_diverged_run_keeps_the_best_before_it(self, monkeypatch):
        # step 5 jumps to non-finite validation; steps 1-4 run at lr 0.03
        res, best, _ = self.run(monkeypatch, TrainConfig(
            lr=0.03, warmup_steps=1, batch_size=4, max_steps=6, eval_every=1, patience=100),
            lr_at=lambda step, cfg: 1e300 if step == 5 else cfg.lr)
        assert (best, res.steps_run, res.stopped) == (4, 5, "diverged")


def morse_loop(numbers, coords, table, square=lambda y: y ** 2):
    """The per-pair loop the Morse labels were first computed with, kept as a
    bit-for-bit oracle; ``square`` is how it squares 1 - x."""
    n = len(numbers)
    energy = 0.0
    forces = np.zeros((n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            key = (int(min(numbers[i], numbers[j])), int(max(numbers[i], numbers[j])))
            if key not in table:
                raise DataError(f"no Morse parameters for element pair {key}")
            d_e, a, r_e = table[key]
            rij = coords[j] - coords[i]
            r = np.linalg.norm(rij)
            x = np.exp(-a * (r - r_e))
            energy += d_e * square(1.0 - x) - d_e
            dv_dr = 2.0 * d_e * a * (1.0 - x) * x
            pair_force = -dv_dr * rij / r     # force on atom j
            forces[j] += pair_force
            forces[i] -= pair_force
    return float(energy), forces


def assert_same_labels(mols, table):
    for m in mols:
        e, f = morse_loop(m.atomic_numbers, m.coords, table)
        assert m.energy == e
        assert np.array_equal(m.forces, f)


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

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_the_loops_bits(self, rng, n):
        numbers = rng.choice((1, 6, 7, 8), size=n)
        coords = random_coords(rng, n, 8.0, 0.8)
        e, f = morse_energy_forces(numbers, coords, self.table)
        e_loop, f_loop = morse_loop(numbers, coords, self.table)
        assert type(e) is float and e == e_loop
        assert np.array_equal(f, f_loop)

    def test_square_is_the_scalar_pow(self):
        # at this distance (1 - x) ** 2 and (1 - x) * (1 - x) give energies
        # one bit apart
        numbers, coords = np.array([1, 6]), np.array([[0.0, 0, 0], [2.846, 0, 0]])
        e_loop, f_loop = morse_loop(numbers, coords, self.table)
        assert morse_loop(numbers, coords, self.table, square=lambda y: y * y)[0] != e_loop
        e, f = morse_energy_forces(numbers, coords, self.table)
        assert e == e_loop
        assert np.array_equal(f, f_loop)

    def test_generated_set_has_the_loops_bits(self):
        # the set test_07 learns from
        from test_acceptance import LEARNING_SPEC
        data = generate_synthetic(LEARNING_SPEC, seed=0)
        assert len(data) == 600
        assert_same_labels(data.molecules, LEARNING_SPEC.pair_params)

    def test_unknown_pair(self):
        with pytest.raises(DataError, match=r"^no Morse parameters for element pair \(1, 2\)$"):
            morse_energy_forces(np.array([1, 2]),
                                np.array([[0.0, 0, 0], [1.0, 0, 0]]), self.table)

    def test_set_names_the_first_missing_pair_as_the_loop_does(self, rng):
        numbers = [np.array([1, 6]), np.array([6, 2, 3, 1])]
        coords = [random_coords(rng, len(z), 4.0, 0.8) for z in numbers]
        with pytest.raises(DataError) as loop_error:
            morse_loop(numbers[1], coords[1], self.table)
        with pytest.raises(DataError) as error:
            training._morse_labels(numbers, coords, self.table)
        assert str(error.value) == str(loop_error.value) == \
            "no Morse parameters for element pair (2, 6)"


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
        assert_same_labels(generate_synthetic(spec, seed=1).molecules, spec.pair_params)

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
        assert_same_labels(ds.molecules, spec.pair_params)

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

    def test_patience_stops_a_run_that_does_not_improve(self):
        # lr 1e-30 leaves every parameter bit unchanged, so the step-2
        # validation MAE equals the step-0 one and is no improvement
        res = train(tiny_model(), tiny_dataset(), TrainConfig(
            lr=1e-30, batch_size=4, max_epochs=2, eval_every=2, patience=1,
            normalize_targets=False))
        assert (res.stopped, res.steps_run) == ("early_stopping", 2)
        assert [m[:2] for m in res.metrics] == [(0, "val"), (2, "train"), (2, "val")]

    def test_running_out_of_epochs_stops_with_max_steps(self):
        data = tiny_dataset()
        res = train(tiny_model(), data, TrainConfig(
            batch_size=4, max_epochs=2, max_steps=0, eval_every=100, patience=100))
        n_train = len(data.splits["train"])
        assert res.stopped == "max_steps"
        assert res.steps_run == 2 * -(-n_train // 4) == 6
        assert [m[:2] for m in res.metrics] == [(0, "val"), (6, "train"), (6, "val")]

    def test_off_boundary_max_steps_ends_with_one_train_and_one_val_row(self):
        res = train(tiny_model(), tiny_dataset(), TrainConfig(
            batch_size=4, max_steps=5, eval_every=2, patience=100))
        assert (res.stopped, res.steps_run) == ("max_steps", 5)
        assert [m[:2] for m in res.metrics] == [
            (0, "val"), (2, "train"), (2, "val"), (4, "train"), (4, "val"),
            (5, "train"), (5, "val")]

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")     # inf/NaN on purpose
    def test_nonfinite_forward_ends_diverged(self, monkeypatch):
        model = tiny_model()
        inner = training.group_losses
        sizes, before = [], {}

        def faulty(*args, **kwargs):
            if sum(sizes) == 4:          # first group of step 2, before its forward
                net = args[0]
                b1 = net.layers[0].ffn_b1.data.copy()
                b1[0] = np.inf
                net.layers[0].ffn_b1.data = b1       # a new array: the best checkpoint keeps the old
                before.update({k: t.data.copy() for k, t in net.params().items()})
            sizes.append(len(args[1]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(training, "group_losses", faulty)
        res = train(model, tiny_dataset(), TrainConfig(
            batch_size=4, max_steps=3, eval_every=1, patience=100))
        assert res.stopped == "diverged"
        best = load_checkpoint(io.BytesIO(res.best_checkpoint))     # refuses non-finite values
        assert all(np.isfinite(t.data).all() for t in best.params().values())
        assert before
        assert sizes == [4, 4]       # the fault ran through a group of four
        for k, t in model.params().items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_empty_training_set(self):
        model = tiny_model()
        ds = tiny_dataset()
        ds.splits["train"] = np.array([], dtype=int)
        with pytest.raises(ConfigError):
            train(model, ds, TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")     # inf/NaN on purpose
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


# the train-morse-small benchmark: 2 layers, d_m 32, 4-8 carbon atoms, batch 4
SMALL_ARCH = dict(n_layers=2, d_m=32, n_heads=4, d_h=64,
                  basis=BasisConfig(n_basis=64), d_rbf=32, d_emb2=16)


def small_morse_run(steps=3):
    """``steps`` batches of 4 small Morse molecules, then 4 for validation."""
    data = generate_synthetic(SyntheticSpec(
        n_molecules=4 * steps + 4, min_atoms=4, max_atoms=8, box=4.0, elements=(6,),
        pair_params={(6, 6): (2.0, 0.7, 1.6)}), seed=3)
    n = 4 * steps
    dataset = Dataset(molecules=data.molecules, target_name="morse_energy",
                      splits={"train": np.arange(n), "val": np.arange(n, n + 4)})
    return dataset, TrainConfig(lr=1e-3, warmup_steps=5, batch_size=4, max_steps=steps,
                                eval_every=10, patience=100, seed=3)


class TestBatchedSteps:
    """A training step runs each group of its batch as one graph."""

    def test_benchmark_loss_hook_sees_every_molecule(self):
        dataset, cfg = small_morse_run()

        def run():
            # the hook of perfbench's TrainWorkload.run_round
            model = GeoTModel.init(ModelConfig(**SMALL_ARCH), seed=1)
            losses = []
            inner = training.molecule_loss

            def recorded(*args, **kwargs):
                loss = inner(*args, **kwargs)
                losses.append(loss.item())
                return loss

            training.molecule_loss = recorded
            try:
                result = train(model, dataset, cfg)
            finally:
                training.molecule_loss = inner
            assert (result.steps_run, result.stopped) == (3, "max_steps")
            return model, losses

        model, losses = run()
        assert len(losses) == 12 and np.all(np.isfinite(losses))
        assert run()[1] == losses
        # step 1 ran on the initial parameters, after the target normalization
        fresh = GeoTModel.init(ModelConfig(**SMALL_ARCH), seed=1)
        fresh.config = model.config
        batch = next(training._batches(dataset.subset("train"), cfg,
                                       np.random.default_rng(cfg.seed)))
        alone = [molecule_loss(fresh, mol, cfg).item() for mol in batch]
        np.testing.assert_allclose(losses[:4], alone, rtol=1e-10, atol=0)

    def test_one_forward_per_group(self, monkeypatch):
        dataset, cfg = small_morse_run()
        inner = GeoTModel.forward_parts
        seen = []

        def counted(model, molecules, trace=None):
            seen.append(molecules)
            return inner(model, molecules, trace)

        monkeypatch.setattr(GeoTModel, "forward_parts", counted)
        train(GeoTModel.init(ModelConfig(**SMALL_ARCH), seed=1), dataset, cfg)
        val = dataset.subset("val")
        assert groups(val) == [val]
        # validation at steps 0 and 3, one training group per step
        assert [len(m) for m in seen] == [4] * 5
        assert seen[0] == seen[-1] == val


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
