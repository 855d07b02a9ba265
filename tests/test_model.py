import gc
import io
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn import training
from geoattn.errors import ConfigError, DataError
from geoattn.geometry import BasisConfig, Molecule
from geoattn.model import (PAIR_BUDGET, GeoTModel, ModelConfig, checkpoint_bytes,
                           ffn, groups, load_checkpoint, save_checkpoint)
from conftest import held_arrays, numeric_grad, rel_err, tracked_nodes


def small_config(**over):
    base = dict(n_layers=2, d_m=8, n_heads=2, d_h=16,
                basis=BasisConfig(n_basis=8), d_rbf=8, d_emb2=4)
    base.update(over)
    return ModelConfig(**base)


def random_molecule(rng, n=4):
    while True:
        coords = rng.uniform(0, 3.0, (n, 3))
        try:
            return Molecule(rng.choice([1, 6, 7, 8], n), coords)
        except Exception:
            continue


def labeled(mol):
    """``mol`` with zero energy and force labels, as a loss needs."""
    return Molecule(mol.atomic_numbers, mol.coords, energy=0.0,
                    forces=np.zeros((len(mol.atomic_numbers), 3)))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(n_layers=0)
        with pytest.raises(ConfigError):
            small_config(d_m=9)
        with pytest.raises(ConfigError):
            small_config(block_kind="residual")
        with pytest.raises(ConfigError):
            small_config(force_sign="up")

    def test_basis_accepts_dict(self):
        cfg = small_config(basis={"kind": "gaussian", "n_basis": 8})
        assert cfg.basis.n_basis == 8


class TestEmbed:
    def test_rows_match_table(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = Molecule([1, 6, 1], rng.uniform(0, 3, (3, 3)))
        x = model.embed(mol).data
        np.testing.assert_array_equal(x[0], model.atom_embedding.data[1])
        np.testing.assert_array_equal(x[1], model.atom_embedding.data[6])
        np.testing.assert_array_equal(x[0], x[2])


class TestFFN:
    def test_dense_oracle(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        layer = model.layers[0]
        x = rng.uniform(-1, 1, (3, 8))
        out = ffn(ad.constant(x), layer).data
        h = x @ layer.ffn_w1.data + layer.ffn_b1.data
        h = np.where(h > 0, h, np.expm1(h))
        np.testing.assert_allclose(out, h @ layer.ffn_w2.data + layer.ffn_b2.data,
                                   atol=1e-12)


class TestReadout:
    def test_sum_pool_oracle(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        x = rng.uniform(-1, 1, (5, 8))
        got = model.readout(ad.constant(x), np.zeros(5, dtype=int)).item()
        want = float(x.sum(0) @ model.w_pool.data[:, 0] + model.b_out.data)
        assert got == pytest.approx(want, abs=1e-12)

    def test_output_affine(self, rng):
        cfg = small_config()
        model = GeoTModel.init(cfg, seed=0)
        mol = random_molecule(rng)
        raw = model.energy(mol)
        model.config.out_scale = 2.0
        model.config.out_shift = -5.0
        assert model.energy(mol) == pytest.approx(2.0 * raw - 5.0, abs=1e-10)
        model.config.out_scale = 1.0
        model.config.out_shift = 0.0


class TestBlockVariants:
    @pytest.mark.parametrize("kind", ["sequential", "parallel_mlp"])
    def test_runs_and_is_finite(self, rng, kind):
        model = GeoTModel.init(small_config(block_kind=kind), seed=0)
        e = model.energy(random_molecule(rng))
        assert np.isfinite(e)

    def test_layer_norm_count(self):
        seq = GeoTModel.init(small_config(block_kind="sequential"), seed=0)
        par = GeoTModel.init(small_config(block_kind="parallel_mlp"), seed=0)
        def n_ln(model):
            return sum(name.startswith("layer0.ln") and name.endswith("_gain")
                       for name in model.params())
        assert n_ln(seq) == 2
        assert n_ln(par) == 1
        assert par.layers[0].ln1_gain is None and par.layers[0].ln1_bias is None

    def test_softmax_baseline_runs(self, rng):
        model = GeoTModel.init(small_config(use_softmax_baseline=True), seed=0)
        assert np.isfinite(model.energy(random_molecule(rng)))

    def test_attn_scale_variant_differs(self, rng):
        mol = random_molecule(rng)
        plain = GeoTModel.init(small_config(), seed=0)
        scaled = GeoTModel.init(small_config(use_attn_scale=True), seed=0)
        # amplification weights start at zero, so the two paths coincide
        assert scaled.energy(mol) == pytest.approx(plain.energy(mol), abs=1e-10)
        for layer in scaled.layers:
            layer.attn.w_a.data = np.array(0.5)
        assert abs(scaled.energy(mol) - plain.energy(mol)) > 1e-8


class TestEnergyInvariances:
    def test_rigid_motion(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = random_molecule(rng, n=5)
        e0 = model.energy(mol)
        u = random_rotation(rng)
        t = rng.uniform(-10, 10, 3)
        moved = Molecule(mol.atomic_numbers, mol.coords @ u.T + t)
        assert abs(model.energy(moved) - e0) < 1e-8

    def test_permutation(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = random_molecule(rng, n=5)
        perm = rng.permutation(5)
        permuted = Molecule(mol.atomic_numbers[perm], mol.coords[perm])
        assert abs(model.energy(permuted) - model.energy(mol)) < 1e-8


class TestEnergy:
    def test_same_bits_as_forward_parts(self, rng):
        model = GeoTModel.init(small_config(use_attn_scale=True), seed=0)
        mol = random_molecule(rng, n=5)
        assert model.energy(mol) == model.forward_parts(mol)[0].item()

    def test_records_no_graph(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = random_molecule(rng, n=4)
        energies = []
        inner = model.forward_parts
        model.forward_parts = lambda m: energies.append(inner(m)[0]) or (energies[-1], None)
        model.energy(mol)
        assert energies[0].parents == () and not energies[0].requires_grad


class TestForces:
    def test_matches_finite_differences(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = random_molecule(rng)
        f = model.forces(mol)

        def energy_of(c):
            return model.energy(Molecule(mol.atomic_numbers, c))

        (n,) = numeric_grad(energy_of, [mol.coords])
        assert rel_err(f, n) < 1e-5   # force_sign defaults to +dE/dr

    def test_physical_sign_negates(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = random_molecule(rng)
        f_paper = model.forces(mol)
        model.config.force_sign = "physical"
        np.testing.assert_allclose(model.forces(mol), -f_paper, atol=1e-12)

    def test_rotation_equivariance(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mol = random_molecule(rng, n=5)
        u = random_rotation(rng)
        f0 = model.forces(mol)
        f1 = model.forces(Molecule(mol.atomic_numbers, mol.coords @ u.T))
        assert np.max(np.abs(f1 - f0 @ u.T)) < 1e-7

    @pytest.mark.parametrize("variant", [{}, {"use_attn_scale": True},
                                         {"use_softmax_baseline": True}],
                             ids=["plain", "attn_scale", "softmax"])
    @pytest.mark.parametrize("block", ["sequential", "parallel_mlp"])
    @pytest.mark.parametrize("mode", ["plain", "atom_aware"])
    @pytest.mark.parametrize("kind", ["gaussian", "bessel", "linear"])
    def test_frozen_parameters_change_no_bit(self, rng, kind, mode, block, variant):
        model = GeoTModel.init(small_config(basis=BasisConfig(kind=kind, n_basis=16),
                                            kernel_mode=mode, block_kind=block, **variant),
                               seed=0)
        for layer in model.layers:
            if layer.attn.w_a is not None:
                layer.attn.w_a.data = np.array(0.3)
        mol = random_molecule(rng, n=5)
        energy, forces = model.energy_and_forces(mol)
        f, e, _ = model.force_tensor(mol, create_graph=False)
        assert energy == e.item()
        np.testing.assert_array_equal(forces, f.data)
        assert all(t.requires_grad for t in model.params().values())

    def test_attn_scale_without_w_a_names_the_none_operand(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        model.config.use_attn_scale = True      # switched on after a build without w_a
        with pytest.raises(TypeError, match="an operand is None"):
            model.energy(random_molecule(rng))

    def test_force_tensor_supports_double_backward(self, rng):
        model = GeoTModel.init(small_config(n_layers=1), seed=0)
        mol = random_molecule(rng, n=3)
        f, _, coords = model.force_tensor(mol)
        loss = ad.tensor_sum(ad.square(f))
        (g,) = ad.grad(loss, [model.w_pool])
        assert g.data.shape == model.w_pool.data.shape
        assert np.all(np.isfinite(g.data))

    def test_graphs_freed_without_cyclic_collector(self, rng):
        model = GeoTModel.init(small_config(use_attn_scale=True,
                                            block_kind="parallel_mlp"), seed=0)
        mol = random_molecule(rng, n=5)
        refs = []
        inner = model.forward_parts

        def capture(molecule, trace=None):
            energy, coords = inner(molecule, trace)
            refs.append(weakref.ref(energy))
            return energy, coords

        model.forward_parts = capture
        gc.collect()
        gc.disable()
        try:
            model.forces(mol)
            assert refs[-1]() is None
            f, _, _ = model.force_tensor(mol)
            ad.grad(ad.tensor_sum(ad.square(f)), [model.w_pool])
            del f
            assert refs[-1]() is None
        finally:
            gc.enable()


class TestGraphSize:
    """Tracked nodes per molecule of the default model; the count does not
    depend on the number of atoms."""

    @pytest.fixture
    def setup(self, rng):
        return GeoTModel.init(ModelConfig(), seed=0), labeled(random_molecule(rng, n=3))

    def test_forward_nodes(self, setup):
        model, mol = setup
        energy, _ = model.forward_parts(mol)
        assert len(tracked_nodes(energy)) <= 211

    def test_force_forward_nodes(self, setup):
        # energy_and_forces records only the graph of the coordinates
        model, mol = setup
        energies = []
        inner = model.forward_parts
        model.forward_parts = lambda m: energies.append(inner(m)) or energies[-1]
        model.energy_and_forces(mol)
        assert len(tracked_nodes(energies[0][0])) <= 164

    def test_training_loss_nodes(self, setup):
        model, mol = setup
        loss = training.molecule_loss(model, mol, training.TrainConfig())
        assert len(tracked_nodes(loss)) <= 340

    def test_group_of_one_training_loss_nodes(self, setup):
        # the graph a training step records for a molecule that runs alone
        model, mol = setup
        (loss,) = training.group_losses(model, [mol], training.TrainConfig())
        assert len(tracked_nodes(loss)) <= 340


def held_bytes(root):
    return sum(a.nbytes for a in held_arrays(root))


def traced_peak(fn):
    """The tracemalloc peak of ``fn()``, after a call that warms the caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGraphMemory:
    """Bytes held by a default-model graph until its output is dropped, or
    until a sweep without create_graph frees what it ran."""

    def test_training_loss_bytes(self, rng):
        loss = training.molecule_loss(GeoTModel.init(ModelConfig(), seed=0),
                                      labeled(random_molecule(rng, n=12)),
                                      training.TrainConfig())
        assert held_bytes(loss) <= 4.04e6     # 3.96 MB measured

    def test_forward_bytes(self, rng):
        # the graph that a force evaluation sweeps
        energy, _ = GeoTModel.init(ModelConfig(), seed=0).forward_parts(
            random_molecule(rng, n=40))
        assert held_bytes(energy) <= 12.5e6   # 12.26 MB measured

    def test_force_forward_bytes(self, rng):
        # the same forward with the parameters frozen, as a force evaluation
        # records it
        model = GeoTModel.init(ModelConfig(), seed=0)
        with ad.frozen(model.params().values()):
            energy, _ = model.forward_parts(random_molecule(rng, n=40))
        assert held_bytes(energy) <= 8.8e6    # 8.67 MB measured

    def test_training_loss_bytes_after_its_parameter_sweep(self, rng):
        # what is left: the leaves, and the vjps of the nodes off the path
        # from the parameters (distances, basis)
        model = GeoTModel.init(ModelConfig(), seed=0)
        loss = training.molecule_loss(model, labeled(random_molecule(rng, n=12)),
                                      training.TrainConfig())
        ad.grad(loss, model.params().values(), create_graph=False)
        assert held_bytes(loss) <= 1.72e6     # 1.68 MB measured, 3.96 before

    def test_force_forward_bytes_after_its_coordinate_sweep(self, rng):
        model = GeoTModel.init(ModelConfig(), seed=0)
        with ad.frozen(model.params().values()):
            energy, coords = model.forward_parts(random_molecule(rng, n=40))
        ad.grad(energy, [coords], create_graph=False)
        # the parameters, the coordinates and the (1,) energy's own value
        leaves = {id(t.data) for t in model.params().values()} | {id(coords.data),
                                                                  id(energy.data)}
        assert {id(a) for a in held_arrays(energy) if a.size} <= leaves
        assert held_bytes(energy) <= 1.0e6    # 0.97 MB measured, 8.67 before

    def test_training_loss_and_parameter_sweep_peak(self, rng):
        model = GeoTModel.init(ModelConfig(), seed=0)
        mol, params = labeled(random_molecule(rng, n=40)), model.params().values()

        def step():
            loss = training.molecule_loss(model, mol, training.TrainConfig())
            ad.grad(loss, params, create_graph=False)

        assert traced_peak(step) <= 20.3e6    # 19.88 MB measured, 25.33 before

    def test_energy_and_forces_peak(self, rng):
        model, mol = GeoTModel.init(ModelConfig(), seed=0), random_molecule(rng, n=40)
        assert traced_peak(lambda: model.energy_and_forces(mol)) <= 8.95e6  # 8.72 MB, 10.11 before


class TestAttentionTrace:
    def test_trace_shapes(self, rng):
        cfg = small_config()
        model = GeoTModel.init(cfg, seed=0)
        mol = random_molecule(rng, n=4)
        trace = []
        model.forward_parts(mol, trace=trace)
        assert len(trace) == cfg.n_layers == 2
        for rec in trace:
            assert rec.logits.shape == (4, 4, cfg.n_heads)


ATTN_NAMES = ["layer0.attn.wq", "layer0.attn.wk", "layer0.attn.wv"]
KERNEL_NAMES = ["layer0.kernel.w1", "layer0.kernel.b1", "layer0.kernel.w2", "layer0.kernel.b2"]
FFN_LN0_NAMES = ["layer0.ffn_w1", "layer0.ffn_b1", "layer0.ffn_w2", "layer0.ffn_b2",
                 "layer0.ln0_gain", "layer0.ln0_bias"]


class TestCheckpoints:
    # the checkpoint names, in archive order; a renamed or dropped field fails here
    @pytest.mark.parametrize("over, names", [
        (dict(block_kind="sequential", kernel_mode="atom_aware",
              basis=BasisConfig(kind="linear", n_basis=8)),
         ["atom_embedding", *ATTN_NAMES, *KERNEL_NAMES, "layer0.kernel.embed",
          "layer0.kernel.lin_a", "layer0.kernel.lin_b", *FFN_LN0_NAMES, "layer0.ln1_gain",
          "layer0.ln1_bias", "w_pool", "b_out"]),
        (dict(block_kind="parallel_mlp", kernel_mode="plain",
              basis=BasisConfig(kind="gaussian", n_basis=8)),
         ["atom_embedding", *ATTN_NAMES, *KERNEL_NAMES, *FFN_LN0_NAMES, "w_pool", "b_out"]),
        (dict(block_kind="parallel_mlp", kernel_mode="plain", use_attn_scale=True,
              basis=BasisConfig(kind="gaussian", n_basis=8)),
         ["atom_embedding", *ATTN_NAMES, "layer0.attn.w_a", *KERNEL_NAMES, *FFN_LN0_NAMES,
          "w_pool", "b_out"]),
    ], ids=["sequential_atom_aware_linear", "parallel_plain_gaussian",
            "parallel_plain_gaussian_attn_scale"])
    def test_parameter_names_pinned(self, over, names):
        model = GeoTModel.init(small_config(n_layers=1, **over), seed=0)
        assert list(model.params()) == names
        with np.load(io.BytesIO(checkpoint_bytes(model))) as blob:
            assert blob.files == ["__config__"] + [f"param:{n}" for n in names]

    def test_roundtrip_bit_exact(self, rng, tmp_path):
        model = GeoTModel.init(small_config(use_attn_scale=True), seed=3)
        model.config.out_shift = -1.25
        model.config.out_scale = 0.5
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name, t in model.params().items():
            np.testing.assert_array_equal(loaded.params()[name].data, t.data)
        mol = random_molecule(rng)
        assert loaded.energy(mol) == model.energy(mol)

    def test_bytes_container(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        blob = checkpoint_bytes(model)
        loaded = load_checkpoint(io.BytesIO(blob))
        mol = random_molecule(rng)
        assert loaded.energy(mol) == model.energy(mol)

    def test_nonfinite_parameter_rejected(self, tmp_path):
        model = GeoTModel.init(small_config(), seed=0)
        model.layers[0].ffn_b1.data[0] = np.inf
        model.w_pool.data[1, 0] = np.nan
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with pytest.raises(ConfigError, match="layer0.ffn_b1, w_pool"):
            load_checkpoint(path)

    def test_shape_mismatch_detected(self, tmp_path):
        model = GeoTModel.init(small_config(), seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays["param:w_pool"] = np.zeros((3, 3))
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda c: (c.pop("out_shift"), c.pop("out_scale")), "'out_scale', 'out_shift'"),
        (lambda c: c.update(banana=1), "'banana'"),
        (lambda c: c["basis"].pop("gamma"), "'gamma'"),
        (lambda c: c["basis"].update(width=2.0), "'width'"),
    ], ids=["missing", "unknown", "basis_missing", "basis_unknown"])
    def test_config_fields_must_match_exactly(self, tmp_path, edit, named):
        model = GeoTModel.init(small_config(), seed=0)
        model.config.out_shift, model.config.out_scale = 1.5, 2.0
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        cfg = json.loads(bytes(arrays["__config__"]).decode())
        edit(cfg)
        arrays["__config__"] = np.frombuffer(json.dumps(cfg).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_checkpoint(path)

    @staticmethod
    def with_w_a(tmp_path, value):
        """A checkpoint of a model without AttnScale that holds an unused
        ``layer0.attn.w_a``, as such checkpoints once did."""
        model = GeoTModel.init(small_config(), seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays["param:layer0.attn.w_a"] = np.array(value)
        np.savez(path, **arrays)
        return model, path

    def test_unused_zero_w_a_loads_and_is_dropped(self, rng, tmp_path):
        model, path = self.with_w_a(tmp_path, 0.0)
        loaded = load_checkpoint(path)
        assert "layer0.attn.w_a" not in loaded.params()
        assert checkpoint_bytes(loaded) == checkpoint_bytes(model)
        mol = random_molecule(rng)
        assert loaded.energy(mol) == model.energy(mol)

    def test_unused_nonzero_w_a_rejected(self, tmp_path):
        _, path = self.with_w_a(tmp_path, 0.25)
        with pytest.raises(ConfigError, match="layer0.attn.w_a"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        model = GeoTModel.init(small_config(), seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files if k != "param:layer0.attn.wq"}
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match="layer0.attn.wq"):
            load_checkpoint(path)


def padded_pairs(mols):
    n_max = max(m.n_atoms for m in mols)
    return len(mols) * n_max * (n_max + 1) // 2


class TestGrouping:
    def test_groups_keep_order_and_never_split(self, rng):
        mols = [random_molecule(rng, int(n)) for n in rng.integers(1, 26, 40)]
        out = groups(mols)
        assert [m for g in out for m in g] == mols
        assert all(g for g in out)
        for g, after in zip(out, out[1:]):
            # a group closes only where the next molecule would not fit
            assert padded_pairs(g) <= PAIR_BUDGET < padded_pairs(g + after[:1])

    def test_molecule_above_the_budget_is_a_group_of_one(self, rng):
        big = random_molecule(rng, 34)
        assert padded_pairs([big]) > PAIR_BUDGET
        small = [random_molecule(rng, 3) for _ in range(4)]
        out = groups(small[:2] + [big] + small[2:])
        assert out == [small[:2], [big], small[2:]]

    def test_large_molecule_is_not_padded_with_small_ones(self, rng):
        # ten 3-atom molecules after a 30-atom one would be 11 slots of 30^2
        big = random_molecule(rng, 30)
        small = [random_molecule(rng, 3) for _ in range(10)]
        assert groups([big] + small) == [[big], small]
        assert groups(small + [big]) == [small, [big]]

    def test_budget_groups_small_batches_and_isolates_large_molecules(self):
        # a batch of four 8-atom molecules is one group; two of 24 atoms are not
        assert 4 * 36 <= PAIR_BUDGET < 2 * 300

    def test_empty_list_refused(self):
        with pytest.raises(DataError, match="no molecules"):
            groups([])


def group_results(model, mols, cfg):
    """Energies, forces, losses and parameter gradients of ``mols`` run as
    one group."""
    energies, coords = model.forward_parts(mols)
    (de_dr,) = ad.grad(ad.tensor_sum(energies), [coords], create_graph=False)
    losses = training.group_losses(model, mols, cfg)
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    params = model.params()
    grads = ad.grad(total, params.values(), create_graph=False)
    cut = np.cumsum([m.n_atoms for m in mols])[:-1]
    return (energies.data, np.split(de_dr.data, cut), [t.item() for t in losses],
            dict(zip(params, (g.data for g in grads))))


def single_results(model, mols, cfg):
    """The same, each molecule a group of one."""
    params = model.params()
    grads = {name: 0.0 for name in params}
    losses = []
    for mol in mols:
        loss = training.molecule_loss(model, mol, cfg)
        losses.append(loss.item())
        for name, g in zip(params, ad.grad(loss, params.values(), create_graph=False)):
            grads[name] = grads[name] + g.data
    return (np.array([model.energy(m) for m in mols]), [model.forces(m) for m in mols],
            losses, grads)


def flat(grads):
    return np.concatenate([np.ravel(g) for g in grads.values()])


def assert_close(got, want, tol=1e-10):
    # gradients relative to the largest entry of any parameter: some arrays'
    # gradients are zero up to rounding
    assert rel_err(flat(got[3]), flat(want[3])) <= tol
    assert rel_err(got[0], want[0]) <= tol
    assert rel_err(np.array(got[2]), np.array(want[2])) <= tol
    for f, w in zip(got[1], want[1]):
        assert rel_err(f, w) <= tol


GRID = [dict(basis=BasisConfig(kind=kind, n_basis=8), block_kind=block,
             kernel_mode=mode, use_attn_scale=scale)
        for kind in ("gaussian", "bessel", "linear")
        for block in ("sequential", "parallel_mlp")
        for mode in ("plain", "atom_aware")
        for scale in (False, True)]
GRID += [dict(use_softmax_baseline=True, block_kind=block)
         for block in ("sequential", "parallel_mlp")]


class TestGroupEquivalence:
    """A group gives each molecule the results it has as a group of one."""

    @pytest.mark.parametrize("over", GRID, ids=lambda o: "-".join(
        str(v.kind if isinstance(v, BasisConfig) else v) for v in o.values()))
    def test_group_matches_groups_of_one(self, rng, over):
        model = GeoTModel.init(small_config(**over), seed=0)
        for layer in model.layers:
            if layer.attn.w_a is not None:
                layer.attn.w_a.data = np.array(0.3)
        cfg = training.TrainConfig(force_weight=10.0)
        # padded (mixed sizes), unpadded (equal sizes) and a list of one
        for sizes in [(3, 6, 2, 5), (4, 4), (5,), (1, 4, 3)]:
            mols = [Molecule(m.atomic_numbers, m.coords, energy=float(rng.normal()),
                             forces=rng.normal(size=(m.n_atoms, 3)))
                    for m in (random_molecule(rng, n) for n in sizes)]
            assert_close(group_results(model, mols, cfg), single_results(model, mols, cfg))

    def test_reordering_a_group_moves_no_result(self, rng):
        model = GeoTModel.init(small_config(use_attn_scale=True), seed=0)
        mols = [labeled(random_molecule(rng, n)) for n in (2, 6, 4, 5)]
        cfg = training.TrainConfig(force_weight=10.0)
        base = group_results(model, mols, cfg)
        perm = [2, 0, 3, 1]
        moved = group_results(model, [mols[k] for k in perm], cfg)
        np.testing.assert_allclose(moved[0], base[0][perm], rtol=1e-10, atol=0)
        np.testing.assert_allclose(moved[2], np.array(base[2])[perm], rtol=1e-10, atol=0)
        for k, f in zip(perm, moved[1]):
            assert rel_err(f, base[1][k]) <= 1e-10
        assert rel_err(flat(moved[3]), flat(base[3])) <= 1e-10

    def test_padded_kernel_and_attention_are_zero(self, rng):
        model = GeoTModel.init(small_config(use_attn_scale=True), seed=0)
        for layer in model.layers:
            layer.attn.w_a.data = np.array(0.3)
        trace = []
        model.forward_parts([random_molecule(rng, n) for n in (2, 5, 3)], trace=trace)
        real = np.zeros((3, 5), dtype=bool)
        for b, n in enumerate((2, 5, 3)):
            real[b, :n] = True
        pad = ~(real[:, :, None] & real[:, None, :])
        for rec in trace:
            assert rec.logits.shape == (3, 5, 5, 2)
            assert np.all(rec.logits[pad] == 0.0) and np.all(rec.logits[~pad] != 0.0)

    def test_energies_match_energy(self, rng):
        model = GeoTModel.init(small_config(), seed=0)
        mols = [random_molecule(rng, int(n)) for n in rng.integers(2, 9, 30)]
        want = np.array([model.energy(m) for m in mols])
        assert len(groups(mols)) > 1
        assert rel_err(model.energies(mols), want) <= 1e-10

    @pytest.mark.parametrize("sign", ["paper", "physical"])
    def test_energies_and_forces_match_energy_and_forces(self, rng, sign):
        model = GeoTModel.init(small_config(force_sign=sign), seed=0)
        # small molecules in groups, and a 34-atom one as a group of one
        mols = [random_molecule(rng, n) for n in (3, 6, 2, 34, 5, 4)]
        assert [len(g) for g in groups(mols)] == [3, 1, 2]
        got = model.energies_and_forces(mols)
        assert len(got) == len(mols)
        for mol, (e, f) in zip(mols, got):
            want_e, want_f = model.energy_and_forces(mol)
            assert isinstance(e, float) and f.shape == (mol.n_atoms, 3)
            assert rel_err(np.array(e), np.array(want_e)) <= 1e-10
            assert rel_err(f, want_f) <= 1e-10
