import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn.errors import ConfigError, DataError
from geoattn.geometry import (BasisConfig, KernelParams, Molecule,
                              bessel_basis, distance_matrix, gaussian_basis,
                              init_kernel_params, kernel_tensor, linear_basis,
                              min_distance, pair_geometry, pairwise_distances,
                              random_coords)
from geoattn.gradcheck import random_molecule
from geoattn.model import GeoTModel, ModelConfig
from conftest import numeric_grad, rel_err


def reference_kernel(p, cfg, r, code=None):
    """Dense numpy Lambda = W2^T swish(W1^T [g(r); code] + b1) + b2 for an
    array of distances ``r``; ``code`` has shape r.shape + (d_emb2,)."""
    r = np.asarray(r, dtype=float)[..., None]
    k = np.arange(1, cfg.n_basis + 1)
    if cfg.kind == "gaussian":
        g = np.exp(-cfg.gamma * (r - cfg.delta * k) ** 2)
    elif cfg.kind == "bessel":
        c = cfg.bessel_cutoff
        freqs = k * np.pi / c
        tiny = r < 1e-10
        g = np.sqrt(2 / c) * np.where(tiny, freqs, np.sin(freqs * r) / np.where(tiny, 1.0, r))
    else:
        g = p.lin_a.data + p.lin_b.data * r
    if code is not None:
        g = np.concatenate([g, code], axis=-1)
    pre = g @ p.w1.data + p.b1.data
    h = pre / (1.0 + np.exp(-pre))
    return h @ p.w2.data + p.b2.data


def reference_tensor(p, cfg, coords, numbers):
    """N x N x d_m reference kernel of a molecule; the atom-aware code is
    E[z_i] + E[z_j]."""
    diff = coords[:, None, :] - coords[None, :, :]
    r = np.sqrt((diff ** 2).sum(-1))
    code = None
    if p.embed is not None:
        emb = p.embed.data[numbers]
        code = emb[:, None, :] + emb[None, :, :]
    return reference_kernel(p, cfg, r, code)


def distances(coords):
    """Pair list and differentiable pair distances of a coordinate tensor."""
    pairs = ad.pair_index(coords.shape[0])
    return pairs, pairwise_distances(coords, pairs)


def dense(coords):
    """N x N matrix of the pair distances of a coordinate array."""
    pairs, r = distances(ad.constant(coords))
    return r.data[pairs.index]


def geometry(coords, cfg):
    """The PairGeometry the model builds for a coordinate array."""
    return pair_geometry(*distances(ad.constant(coords)), cfg)


def two_atoms(cfg, r, z=(6, 8)):
    """Pair geometry and atomic numbers of two atoms at distance r; ``r`` may
    be a tensor.  The pairs are (0, 1), then the diagonal (0, 0), (1, 1)."""
    return pair_geometry(ad.pair_index(2), ad.mul(r, [1.0, 0.0, 0.0]), cfg), np.array(z)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestMolecule:
    def test_valid(self):
        m = Molecule([1, 8], [[0, 0, 0], [0.96, 0, 0]])
        assert m.n_atoms == 2

    def test_bad_atomic_number(self):
        with pytest.raises(DataError):
            Molecule([0], [[0, 0, 0]])
        with pytest.raises(DataError):
            Molecule([200], [[0, 0, 0]])

    def test_coincident_atoms(self):
        with pytest.raises(DataError):
            Molecule([1, 1], [[1, 2, 3], [1, 2, 3]])

    def test_nonfinite_coords(self):
        with pytest.raises(DataError):
            Molecule([1], [[np.inf, 0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_labels(self, bad):
        with pytest.raises(DataError, match="energy"):
            Molecule([1], [[0, 0, 0]], energy=bad)
        with pytest.raises(DataError, match="force"):
            Molecule([1, 1], [[0, 0, 0], [1, 0, 0]], energy=0.0,
                     forces=[[0, 0, 0], [0, bad, 0]])


class TestPairwiseDistances:
    def test_three_four_five(self):
        d = dense([[0, 0, 0], [3, 4, 0]])
        np.testing.assert_allclose(d, [[0, 5], [5, 0]], atol=1e-14)

    def test_single_atom(self):
        d = dense([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(d, [[0.0]])

    def test_matches_per_pair_norms(self, rng):
        coords = rng.uniform(-3, 3, (4, 3))
        d = dense(coords)
        for i in range(4):
            for j in range(4):
                assert d[i, j] == pytest.approx(
                    np.linalg.norm(coords[i] - coords[j]), abs=1e-13)
        # triangle inequality
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_rigid_motion_invariance(self, rng):
        coords = rng.uniform(-2, 2, (6, 3))
        u = random_rotation(rng)
        t = rng.uniform(-10, 10, 3)
        d0 = dense(coords)
        d1 = dense(coords @ u.T + t)
        assert np.max(np.abs(d0 - d1)) < 1e-10

    def test_gradient_with_zero_diagonal_guard(self, rng):
        coords = rng.uniform(-2, 2, (3, 3))
        leaf = ad.parameter(coords)
        pairs, r = distances(leaf)
        out = ad.tensor_sum(ad.expand_pairs(r, pairs))
        (g,) = ad.grad(out, [leaf])

        def forward(c):
            diff = c[:, None, :] - c[None, :, :]
            d = np.sqrt((diff ** 2).sum(-1))
            return float(d.sum())

        (n,) = numeric_grad(forward, [coords])
        assert rel_err(g.data, n) < 1e-6
        assert np.all(np.isfinite(g.data))

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_bitwise_equal_to_distance_matrix(self, rng, n):
        coords = rng.uniform(-3, 3, (n, 3))
        pairs, r = distances(ad.constant(coords))
        assert r.shape == (n * (n + 1) // 2,)
        np.testing.assert_array_equal(r.data, distance_matrix(coords)[pairs.i, pairs.j])

    def test_diagonal_is_exact_zero_with_zero_gradient(self, rng):
        leaf = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        pairs, r = distances(leaf)
        m = len(pairs.i)
        diag = ad.slice_axis(r, 0, m - 5, m)
        np.testing.assert_array_equal(diag.data, np.zeros(5))
        (g,) = ad.grad(ad.tensor_sum(ad.mul(diag, 3.0)), [leaf])
        np.testing.assert_array_equal(g.data, np.zeros((5, 3)))

    def test_second_derivative_vs_finite_differences(self, rng):
        # d/dcoords of |d(sum sin r)/dcoords|^2 runs the vjps of take_rows,
        # put_rows and pad_axis' slice, as every force loss does
        coords = rng.uniform(-2, 2, (4, 3))
        leaf = ad.parameter(coords)
        _, r = distances(leaf)
        (g1,) = ad.grad(ad.tensor_sum(ad.sin(r)), [leaf], create_graph=True)
        (g2,) = ad.grad(ad.tensor_sum(ad.square(g1)), [leaf])

        def forward(c):
            i, j = np.triu_indices(len(c), 1)
            diff = c[i] - c[j]
            rij = np.sqrt((diff ** 2).sum(-1))
            u = diff * (np.cos(rij) / rij)[:, None]
            g = np.zeros_like(c)
            np.add.at(g, i, u)
            np.add.at(g, j, -u)
            return float((g ** 2).sum())

        (n,) = numeric_grad(forward, [coords])
        assert rel_err(g2.data, n) < 1e-6

    def test_softmax_baseline_builds_no_geometry(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("the softmax baseline computed distances")

        monkeypatch.setattr("geoattn.model.pairwise_distances", refuse)
        model = GeoTModel.init(ModelConfig(n_layers=1, d_m=8, n_heads=2, d_h=8,
                                           basis=BasisConfig(n_basis=4), d_rbf=4,
                                           d_emb2=4, use_softmax_baseline=True))
        mol = Molecule([1, 6, 8], rng.uniform(0, 3, (3, 3)))
        _, forces = model.energy_and_forces(mol)
        assert np.all(np.isfinite(forces))


class TestMinDistance:
    def test_single_atom_is_inf(self):
        assert min_distance(np.zeros((1, 3))) == np.inf

    @pytest.mark.parametrize("n", [2, 3, 20])
    def test_bitwise_equal_to_distance_matrix(self, rng, n):
        coords = rng.uniform(-3, 3, (n, 3))
        off = ~np.eye(n, dtype=bool)
        assert min_distance(coords) == np.min(distance_matrix(coords)[off])


class TestRandomCoords:
    def test_first_whole_draw_that_passes_is_returned(self):
        coords = random_coords(np.random.default_rng(4), 6, 4.0, 0.0)
        np.testing.assert_array_equal(coords,
                                      np.random.default_rng(4).uniform(0.0, 4.0, (6, 3)))

    def test_dense_molecule_placed_atom_by_atom(self):
        # 64 atoms 0.8 apart in a 5.0 box: no whole draw comes near (their
        # minimum distance stays below 0.6 in 2000 tries)
        coords = random_coords(np.random.default_rng(0), 64, 5.0, 0.8)
        assert coords.shape == (64, 3)
        assert min_distance(coords) >= 0.8
        assert np.all((coords >= 0.0) & (coords < 5.0))

    def test_impossible_packing_is_data_error(self):
        with pytest.raises(DataError, match="could not place atoms"):
            random_coords(np.random.default_rng(0), 8, 1.0, 2.0)
        with pytest.raises(DataError, match="could not place atoms"):
            random_molecule(np.random.default_rng(0), 8, box=1.0, min_distance=2.0)


class TestGaussianBasis:
    cfg = BasisConfig(kind="gaussian", n_basis=20)

    def test_peak_is_exactly_one(self):
        for k in (1, 5, 20):
            g = gaussian_basis(ad.constant(0.1 * k), self.cfg).data
            assert g[k - 1] == 1.0

    def test_known_values(self):
        g = gaussian_basis(ad.constant(1.0), self.cfg).data
        assert g[9] == 1.0
        assert g[10] == pytest.approx(np.exp(-0.1), abs=1e-12)
        g0 = gaussian_basis(ad.constant(0.0), self.cfg).data
        assert g0[0] == pytest.approx(np.exp(-0.1), abs=1e-12)

    def test_components_in_unit_interval(self, rng):
        for r in rng.uniform(0, 6, 50):
            g = gaussian_basis(ad.constant(r), self.cfg).data
            assert np.all(g > 0) and np.all(g <= 1)

    def test_long_pairs_have_no_subnormal_entry(self):
        # pairs up to 16 A, as in an 80-atom molecule; with the default 64
        # centres exp underflows to subnormals between about 8.5 and 15 A
        cfg = BasisConfig()
        r = np.linspace(8.0, 16.0, 161)
        centers = cfg.delta * np.arange(1, cfg.n_basis + 1)
        raw = np.exp(-cfg.gamma * (r[:, None] - centers) ** 2)
        tiny = np.finfo(np.float64).tiny
        assert np.any((raw > 0) & (raw < tiny))
        g = gaussian_basis(ad.constant(r), cfg).data
        assert not np.any((g > 0) & (g < tiny))
        np.testing.assert_array_equal(g, np.where(raw < tiny, 0.0, raw))


class TestLinearBasis:
    def test_identity_and_constant(self):
        n = 4
        r = ad.constant(1.7)
        out = linear_basis(r, ad.constant(np.zeros(n)), ad.constant(np.ones(n)))
        np.testing.assert_allclose(out.data, 1.7, atol=1e-15)
        out = linear_basis(r, ad.constant(np.ones(n)), ad.constant(np.zeros(n)))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-15)

    def test_gradient_wrt_slope_is_r(self, rng):
        a = rng.uniform(-1, 1, 5)
        b = rng.uniform(-1, 1, 5)
        r = 1.3
        bt = ad.parameter(b)
        out = ad.tensor_sum(linear_basis(ad.constant(r), ad.constant(a), bt))
        (g,) = ad.grad(out, [bt])
        np.testing.assert_allclose(g.data, r, atol=1e-12)
        (n,) = numeric_grad(lambda bb: float((a + bb * r).sum()), [b])
        assert rel_err(g.data, n) < 1e-6


class TestBesselBasis:
    cfg = BasisConfig(kind="bessel", n_basis=6, bessel_cutoff=5.0)

    def test_zero_at_cutoff(self):
        g = bessel_basis(ad.constant(5.0), self.cfg).data
        assert np.max(np.abs(g)) < 1e-12

    def test_half_cutoff_first_component(self):
        g = bessel_basis(ad.constant(2.5), self.cfg).data
        assert g[0] == pytest.approx(np.sqrt(2 / 5) * np.sin(np.pi / 2) / 2.5,
                                     abs=1e-12)

    def test_small_r_limit(self):
        g = bessel_basis(ad.constant(1e-12), self.cfg).data
        limit = np.sqrt(2 / 5) * np.arange(1, 7) * np.pi / 5
        assert np.max(np.abs(g - limit)) < 1e-6


class TestAtomPairCode:
    cfg = BasisConfig(n_basis=8)

    def make_params(self, rng):
        return init_kernel_params(rng, self.cfg, d_m=8,
                                  mode="atom_aware", d_rbf=8, d_emb2=4)

    def test_same_element_doubles(self, rng):
        p = self.make_params(rng)
        geo, numbers = two_atoms(self.cfg, 1.4, (6, 6))
        lam = kernel_tensor(p, self.cfg, geo, numbers).data
        code = np.broadcast_to(2 * p.embed.data[6], (2, 2, 4))
        dist = geo.r.data[geo.pairs.index]
        np.testing.assert_allclose(lam, reference_kernel(p, self.cfg, dist, code),
                                   atol=1e-12)

    def test_symmetry(self, rng):
        p = self.make_params(rng)
        a = kernel_tensor(p, self.cfg, *two_atoms(self.cfg, 1.4, (1, 8))).data
        b = kernel_tensor(p, self.cfg, *two_atoms(self.cfg, 1.4, (8, 1))).data
        np.testing.assert_array_equal(a[0, 1], b[0, 1])

    def test_unknown_element(self, rng):
        with pytest.raises(DataError):
            kernel_tensor(self.make_params(rng), self.cfg, *two_atoms(self.cfg, 1.4, (0, 6)))

    def test_gradient_hits_only_used_rows(self, rng):
        p = self.make_params(rng)
        out = ad.tensor_sum(kernel_tensor(p, self.cfg, *two_atoms(self.cfg, 1.4, (1, 6))))
        (g,) = ad.grad(out, [p.embed])
        touched = np.where(np.any(g.data != 0, axis=1))[0]
        np.testing.assert_array_equal(touched, [1, 6])


class TestTwoBodyKernel:
    cfg = BasisConfig(n_basis=8)

    def test_symmetric_in_atoms(self, rng):
        p = init_kernel_params(rng, self.cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        for r in rng.uniform(0.5, 4.0, 5):
            a = kernel_tensor(p, self.cfg, *two_atoms(self.cfg, r, (6, 8))).data
            b = kernel_tensor(p, self.cfg, *two_atoms(self.cfg, r, (8, 6))).data
            np.testing.assert_array_equal(a[0, 1], b[0, 1])
            np.testing.assert_array_equal(a[0, 1], a[1, 0])

    def test_layers_initialized_independently(self, rng):
        p1 = init_kernel_params(rng, self.cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        p2 = init_kernel_params(rng, self.cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        a = kernel_tensor(p1, self.cfg, *two_atoms(self.cfg, 1.5, (1, 6))).data[0, 1]
        b = kernel_tensor(p2, self.cfg, *two_atoms(self.cfg, 1.5, (1, 6))).data[0, 1]
        assert np.max(np.abs(a - b)) > 1e-6

    def test_zero_weights_give_zero(self, rng):
        p = init_kernel_params(rng, self.cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        for t in (p.w1, p.b1, p.w2, p.b2):
            t.data = np.zeros_like(t.data)
        out = kernel_tensor(p, self.cfg, *two_atoms(self.cfg, 2.0, (6, 6))).data
        np.testing.assert_array_equal(out, np.zeros((2, 2, 8)))

    def test_plain_mode_needs_no_atoms(self, rng):
        p = init_kernel_params(rng, self.cfg, d_m=8, mode="plain", d_rbf=8, d_emb2=4)
        out = kernel_tensor(p, self.cfg, two_atoms(self.cfg, 2.0)[0], None)
        assert out.shape == (2, 2, 8)

    def test_plain_mode_rejects_missing_numbers_when_atom_aware(self, rng):
        p = init_kernel_params(rng, self.cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        with pytest.raises(ConfigError):
            kernel_tensor(p, self.cfg, two_atoms(self.cfg, 2.0)[0], None)

    @pytest.mark.parametrize("kind", ["gaussian", "linear", "bessel"])
    def test_gradient_wrt_distance(self, rng, kind):
        cfg = BasisConfig(kind=kind, n_basis=8)
        p = init_kernel_params(rng, cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        r0 = 1.7
        r = ad.parameter(r0)
        out = ad.tensor_sum(ad.square(kernel_tensor(p, cfg, *two_atoms(cfg, r))))
        (g,) = ad.grad(out, [r])

        def forward(rv):
            t = kernel_tensor(p, cfg, *two_atoms(cfg, rv[()]))
            return float((t.data ** 2).sum())

        (n,) = numeric_grad(forward, [np.array(r0)])
        assert rel_err(np.atleast_1d(g.data), np.atleast_1d(n)) < 1e-5


class TestKernelTensor:
    def test_symmetric_exactly(self, rng):
        cfg = BasisConfig(n_basis=8)
        p = init_kernel_params(rng, cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        coords = rng.uniform(-2, 2, (5, 3))
        numbers = rng.choice([1, 6, 7, 8], 5)
        lam = kernel_tensor(p, cfg, geometry(coords, cfg), numbers).data
        np.testing.assert_array_equal(lam, lam.transpose(1, 0, 2))

    def test_symmetric_exactly_at_twenty_atoms(self, rng):
        cfg = BasisConfig(n_basis=8)
        p = init_kernel_params(rng, cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        coords = rng.uniform(-4, 4, (20, 3))
        numbers = rng.choice([1, 6, 7, 8], 20)
        lam = kernel_tensor(p, cfg, geometry(coords, cfg), numbers).data
        np.testing.assert_array_equal(lam, lam.transpose(1, 0, 2))

    def test_diagonal_defined_and_finite(self, rng):
        cfg = BasisConfig(kind="bessel", n_basis=8)
        p = init_kernel_params(rng, cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        coords = rng.uniform(-2, 2, (3, 3))
        lam = kernel_tensor(p, cfg, geometry(coords, cfg), np.array([1, 6, 8])).data
        assert np.all(np.isfinite(lam))

    def test_matches_per_pair_kernel(self, rng):
        cfg = BasisConfig(n_basis=8)
        p = init_kernel_params(rng, cfg, d_m=8, mode="atom_aware", d_rbf=8, d_emb2=4)
        coords = rng.uniform(-2, 2, (4, 3))
        numbers = np.array([1, 6, 7, 8])
        geo = geometry(coords, cfg)
        lam = kernel_tensor(p, cfg, geo, numbers).data
        for i in range(4):
            for j in range(4):
                code = p.embed.data[numbers[i]] + p.embed.data[numbers[j]]
                single = reference_kernel(p, cfg, geo.r.data[geo.pairs.index[i, j]], code)
                np.testing.assert_allclose(lam[i, j], single, atol=1e-12)

    @pytest.mark.parametrize("mode", ["plain", "atom_aware"])
    @pytest.mark.parametrize("kind", ["gaussian", "bessel", "linear"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_matches_dense_reference(self, rng, n, kind, mode):
        cfg = BasisConfig(kind=kind, n_basis=8)
        p = init_kernel_params(rng, cfg, d_m=8, mode=mode, d_rbf=8, d_emb2=4)
        p.b1.data = rng.normal(size=8)
        p.b2.data = rng.normal(size=8)
        coords = rng.uniform(-2, 2, (n, 3))
        numbers = rng.choice([1, 6, 7, 8], n)
        lam = kernel_tensor(p, cfg, geometry(coords, cfg), numbers).data
        np.testing.assert_allclose(lam, reference_tensor(p, cfg, coords, numbers),
                                   rtol=0, atol=1e-12)


class TestBasisConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            BasisConfig(kind="fourier")

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            BasisConfig(n_basis=0)
        with pytest.raises(ConfigError):
            BasisConfig(gamma=-1.0)
