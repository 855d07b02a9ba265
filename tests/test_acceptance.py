"""End-to-end acceptance checks.

Each test prints a single PASS line with its headline number so the suite
doubles as a verification report when run with ``pytest -v -s``; the lines
are also repeated in the terminal summary, so ``pytest -q`` shows them.
"""

import itertools
import time

import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn.attention import attn_scale, geo_msa, init_attention_params
from geoattn.cli import main
from geoattn.data import split_dataset, write_xyz
from geoattn.geometry import (BasisConfig, Molecule, bessel_basis,
                              gaussian_basis, init_kernel_params,
                              kernel_tensor, pair_geometry, pairwise_distances)
from geoattn.gradcheck import force_gradcheck, random_molecule
from geoattn.model import GeoTModel, ModelConfig, load_checkpoint
from geoattn.training import (SyntheticSpec, TrainConfig, generate_synthetic,
                              molecule_loss, train)
from conftest import HEADLINES


def report(name, detail):
    line = f"PASS {name}: {detail}"
    print(line)
    HEADLINES.append(line)      # conftest prints these in the terminal summary


def rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# -- 1. gradient oracle ------------------------------------------------------

def test_01_force_gradient_oracle():
    t0 = time.time()
    rep = force_gradcheck(n_trials=20, seed=42, max_atoms=12)
    elapsed = time.time() - t0
    assert rep.max_rel_error < 1e-4, rep.per_trial
    assert elapsed < 60.0
    report("gradient oracle",
           f"20 random models/molecules, max rel err {rep.max_rel_error:.2e}, "
           f"{elapsed:.1f}s")


# -- 2. symmetry suite -------------------------------------------------------

def features(model, mol):
    """Per-atom feature matrix (N x d_m) after the last encoder block."""
    return model._encode(mol, ad.constant(mol.coords), None).data


def test_02_symmetry_suite():
    rng = np.random.default_rng(7)
    model = GeoTModel.init(ModelConfig(
        n_layers=2, d_m=16, n_heads=2, d_h=32,
        basis=BasisConfig(n_basis=16), d_rbf=16, d_emb2=8), seed=0)
    worst = {"energy": 0.0, "features": 0.0, "forces": 0.0, "net": 0.0}
    for _ in range(100):
        mol = random_molecule(rng, int(rng.integers(3, 7)))
        u = rotation(rng)
        t = rng.uniform(-10, 10, 3)
        perm = rng.permutation(mol.n_atoms)

        e0 = model.energy(mol)
        moved = Molecule(mol.atomic_numbers, mol.coords @ u.T + t)
        permuted = Molecule(mol.atomic_numbers[perm], mol.coords[perm])
        worst["energy"] = max(worst["energy"],
                              abs(model.energy(moved) - e0),
                              abs(model.energy(permuted) - e0))
        feats = features(model, mol)
        worst["features"] = max(worst["features"], np.max(np.abs(
            features(model, permuted) - feats[perm])))
        f0 = model.forces(mol)
        f_rot = model.forces(Molecule(mol.atomic_numbers, mol.coords @ u.T))
        worst["forces"] = max(worst["forces"], np.max(np.abs(f_rot - f0 @ u.T)))
        worst["net"] = max(worst["net"], np.max(np.abs(f0.sum(axis=0))))
    assert worst["energy"] < 1e-8
    assert worst["features"] < 1e-9
    assert worst["forces"] < 1e-6
    assert worst["net"] < 1e-6
    report("symmetry suite",
           "100 triples; worst: " + ", ".join(f"{k} {v:.1e}"
                                              for k, v in worst.items()))


# -- 3. AttnScale contract ---------------------------------------------------

def test_03_attn_scale_contract():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, (6, 6, 4))
    ident = attn_scale(ad.constant(a), ad.constant(np.zeros(()))).data
    ident_err = np.max(np.abs(ident - a))
    assert ident_err < 1e-12
    row_err = 0.0
    for w in rng.uniform(-0.5, 2.0, 20):
        out = attn_scale(ad.constant(a), ad.constant(np.array(w))).data
        row_err = max(row_err, np.max(np.abs(out.sum(axis=1) - a.sum(axis=1))))
    assert row_err < 1e-10
    report("attn-scale contract",
           f"identity at w=0 err {ident_err:.1e}; row sums err {row_err:.1e}")


# -- 4. softmax-free linearity ----------------------------------------------

def test_04_value_linearity():
    rng = np.random.default_rng(4)
    cfg = ModelConfig(d_m=16, n_heads=4)
    params = init_attention_params(rng, 16)
    x = ad.constant(rng.uniform(-1, 1, (5, 16)))
    lam = ad.constant(rng.uniform(-1, 1, (5, 5, 16)))
    base = geo_msa(x, lam, params, cfg).data
    worst = 0.0
    for s in (2.0, -0.5, 7.25):
        params.wv.data = s * params.wv.data
        scaled = geo_msa(x, lam, params, cfg).data
        params.wv.data = params.wv.data / s
        denom = np.max(np.abs(s * base))
        worst = max(worst, np.max(np.abs(scaled - s * base)) / denom)
    assert worst < 1e-12
    report("value linearity", f"output scales exactly with W_V, rel err {worst:.1e}")


# -- 5. kernel symmetry ------------------------------------------------------

def test_05_kernel_symmetry():
    rng = np.random.default_rng(5)
    cfg = BasisConfig(n_basis=16)
    worst = 0.0
    for _ in range(10):
        p = init_kernel_params(rng, cfg, d_m=16, mode="atom_aware",
                               d_rbf=16, d_emb2=8)
        mol = random_molecule(rng, 6)
        pairs = ad.pair_index(mol.n_atoms)
        geo = pair_geometry(pairs, pairwise_distances(ad.constant(mol.coords), pairs), cfg)
        lam = kernel_tensor(p, cfg, geo, mol.atomic_numbers).data
        worst = max(worst, np.max(np.abs(lam - lam.transpose(1, 0, 2))))
    assert worst == 0.0
    report("kernel symmetry", "exact over 10 random kernels/molecules")


# -- 6. basis values ---------------------------------------------------------

def test_06_basis_values():
    g_cfg = BasisConfig(kind="gaussian", n_basis=30)
    for k in range(1, 31):
        vals = gaussian_basis(ad.constant(0.1 * k), g_cfg).data
        assert vals[k - 1] == 1.0
    rng = np.random.default_rng(6)
    for r in rng.uniform(0.0, 6.0, 200):
        vals = gaussian_basis(ad.constant(r), g_cfg).data
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    b_cfg = BasisConfig(kind="bessel", n_basis=8, bessel_cutoff=5.0)
    cutoff_max = np.max(np.abs(bessel_basis(ad.constant(5.0), b_cfg).data))
    assert cutoff_max < 1e-12
    report("basis values",
           f"Gaussian peaks exact, range (0,1]; Bessel cutoff {cutoff_max:.1e}")


# -- 7/8. desk-scale learning and the basis ablation -------------------------
#
# The synthetic task used for both: Morse sums over random 4-8 atom
# molecules.  Smooth, deep wells keep the radial signal inside the basis
# coverage and give the untrained model a large initial error to close; a
# single element type keeps the energy dominated by geometry, which the
# force-heavy composite loss actually supervises (composition offsets are
# handled by the least-squares baseline fit during normalization).

def _learning_table(elements, seed=12345):
    rng = np.random.default_rng(seed)
    out = {}
    for z1, z2 in itertools.combinations_with_replacement(sorted(elements), 2):
        out[(z1, z2)] = (rng.uniform(1.0, 3.0),    # well depth
                         rng.uniform(0.5, 0.9),    # width (smooth)
                         rng.uniform(1.2, 2.0))    # equilibrium distance
    return out


LEARNING_SPEC = SyntheticSpec(
    n_molecules=600, box=4.0, elements=(6,),
    pair_params=_learning_table((6,)))

LEARNING_MODEL = dict(n_layers=2, d_m=32, n_heads=4, d_h=64,
                      basis=BasisConfig(n_basis=64), d_rbf=32, d_emb2=16)


def _learning_dataset():
    data = generate_synthetic(LEARNING_SPEC, seed=0)
    return split_dataset(data, (500 / 600, 100 / 600, 0.0), seed=0)


@pytest.mark.slow
def test_07_desk_scale_learning():
    data = _learning_dataset()
    model = GeoTModel.init(ModelConfig(**LEARNING_MODEL), seed=1)
    cfg = TrainConfig(lr=2e-4, warmup_steps=3000, force_weight=1000.0,
                      batch_size=4, eval_every=250, max_steps=5000,
                      patience=100, seed=0)
    t0 = time.time()
    result = train(model, data, cfg)
    elapsed = time.time() - t0
    init_mae = result.metrics[0][3]
    ratio = result.best_val_mae / init_mae
    assert result.steps_run <= 5000
    assert elapsed < 15 * 60
    assert ratio <= 0.1, (init_mae, result.best_val_mae)
    report("desk-scale learning",
           f"val MAE {init_mae:.3f} -> {result.best_val_mae:.3f} "
           f"({1 / ratio:.1f}x) in {result.steps_run} steps, {elapsed:.0f}s")


@pytest.mark.slow
def test_08_basis_ablation_ordering():
    data = _learning_dataset()
    results = {}
    for kind in ("gaussian", "linear", "bessel"):
        arch = dict(LEARNING_MODEL)
        arch["basis"] = BasisConfig(kind=kind, n_basis=64)
        model = GeoTModel.init(ModelConfig(**arch), seed=1)
        cfg = TrainConfig(lr=2e-4, warmup_steps=3000, force_weight=1000.0,
                          batch_size=4, eval_every=250, max_steps=1000,
                          patience=100, seed=0)
        results[kind] = train(model, data, cfg).best_val_mae
    assert results["gaussian"] <= results["linear"], results
    report("basis ablation",
           "identical budget/seed val MAE: " +
           ", ".join(f"{k} {v:.3f}" for k, v in results.items()))


# -- 9. determinism and persistence ------------------------------------------

def test_09_determinism_and_checkpoints(tmp_path, monkeypatch):
    monkeypatch.delenv("GEOATTN_OUT_DIR", raising=False)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "n_layers = 1\nd_m = 8\nn_heads = 2\nd_h = 16\nn_basis = 8\n"
        "d_rbf = 8\nd_emb2 = 4\nsynthetic_molecules = 12\nmin_atoms = 3\n"
        "max_atoms = 4\nbatch_size = 4\nmax_steps = 3\neval_every = 1\n"
        "patience = 100\nwarmup_steps = 10\nlr = 1e-3\n")
    assert main(["train", str(cfg_path), "--out_dir", str(tmp_path / "a")]) == 0
    assert main(["train", str(cfg_path), "--out_dir", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "metrics.csv").read_bytes()

    m1 = load_checkpoint(tmp_path / "a" / "final.npz")
    m2 = load_checkpoint(tmp_path / "b" / "final.npz")
    for name, t in m1.params().items():
        np.testing.assert_array_equal(t.data, m2.params()[name].data)

    mol = generate_synthetic(SyntheticSpec(n_molecules=1, min_atoms=3,
                                           max_atoms=3), seed=9).molecules[0]
    tc = TrainConfig()
    l1 = molecule_loss(m1, mol, tc).item()
    l2 = molecule_loss(m2, mol, tc).item()
    assert abs(l1 - l2) <= 1e-15 * max(1.0, abs(l1))
    report("determinism", "byte-identical metrics, bit-exact round-trip, "
           f"next-step loss delta {abs(l1 - l2):.1e}")


# -- 10. attention export ----------------------------------------------------

def test_10_attention_export(tmp_path, monkeypatch):
    monkeypatch.delenv("GEOATTN_OUT_DIR", raising=False)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "n_layers = 4\nd_m = 16\nn_heads = 2\nd_h = 32\nn_basis = 16\n"
        "d_rbf = 16\nd_emb2 = 8\nsynthetic_molecules = 10\nmin_atoms = 3\n"
        "max_atoms = 4\nbatch_size = 4\nmax_steps = 1\neval_every = 1\n"
        "patience = 100\nwarmup_steps = 10\n")
    assert main(["train", str(cfg_path), "--out_dir", str(tmp_path / "out")]) == 0
    mol = random_molecule(np.random.default_rng(10), 10)
    xyz = tmp_path / "mol.xyz"
    xyz.write_text(write_xyz(mol))
    prefix = tmp_path / "attn"
    assert main(["attn-dump", str(tmp_path / "out" / "final.npz"), str(xyz),
                 "--out-prefix", str(prefix)]) == 0

    rows = (tmp_path / "attn_attention.csv").read_text().strip().splitlines()
    assert rows[0] == "layer,head_avg,i,j,value"
    body = rows[1:]
    assert len(body) == 400          # 4 layers x 10 x 10
    values = np.array([float(r.split(",")[4]) for r in body])
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    d = np.linalg.norm(mol.coords[:, None] - mol.coords[None], axis=-1)
    pair_rows = (tmp_path / "attn_pairs.csv").read_text().strip().splitlines()[1:]
    assert len(pair_rows) == 400
    dist_err = 0.0
    for row in pair_rows:
        _, i, j, dist, _ = row.split(",")
        dist_err = max(dist_err, abs(float(dist) - d[int(i), int(j)]))
    assert dist_err < 1e-12
    report("attention export",
           f"400 rows, finite/nonnegative, distance err {dist_err:.1e}")
