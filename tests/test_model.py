import gc
import io
import json
import re
import weakref

import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn import training
from geoattn.errors import ConfigError
from geoattn.geometry import BasisConfig, Molecule
from geoattn.model import (GeoTModel, ModelConfig, checkpoint_bytes, ffn,
                           load_checkpoint, save_checkpoint)
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
        got = model.readout(ad.constant(x)).item()
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
        mol = random_molecule(rng, n=3)
        labeled = Molecule(mol.atomic_numbers, mol.coords, energy=0.0, forces=np.zeros((3, 3)))
        return GeoTModel.init(ModelConfig(), seed=0), labeled

    def test_forward_nodes(self, setup):
        model, mol = setup
        energy, _ = model.forward_parts(mol)
        assert len(tracked_nodes(energy)) <= 211

    def test_training_loss_nodes(self, setup):
        model, mol = setup
        loss = training.molecule_loss(model, mol, training.TrainConfig())
        assert len(tracked_nodes(loss)) <= 340


def held_bytes(root):
    return sum(a.nbytes for a in held_arrays(root))


class TestGraphMemory:
    """Bytes held by a default-model graph until its output is dropped."""

    def test_training_loss_bytes(self, rng):
        mol = random_molecule(rng, n=12)
        mol = Molecule(mol.atomic_numbers, mol.coords, energy=0.0, forces=np.zeros((12, 3)))
        loss = training.molecule_loss(GeoTModel.init(ModelConfig(), seed=0), mol,
                                      training.TrainConfig())
        assert held_bytes(loss) <= 4.04e6     # 3.96 MB measured

    def test_forward_bytes(self, rng):
        # the graph that a force evaluation sweeps
        energy, _ = GeoTModel.init(ModelConfig(), seed=0).forward_parts(
            random_molecule(rng, n=40))
        assert held_bytes(energy) <= 12.5e6   # 12.26 MB measured


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
