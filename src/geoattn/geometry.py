"""Distances, radial basis families, and the learned two-body pair kernel.

The pair kernel maps each interatomic distance (optionally combined with a
symmetric code for the two atomic numbers) through a per-layer two-layer MLP
to a gating vector of width ``d_m``, evaluated once per unordered pair.
Everything here is differentiable through the autodiff engine, including the
pair distances themselves, which is what force prediction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError

MAX_ATOMIC_NUMBER = 118


@dataclass
class Molecule:
    """Atomic numbers plus 3-D coordinates in Angstrom, with optional labels."""

    atomic_numbers: np.ndarray
    coords: np.ndarray
    energy: float | None = None
    forces: np.ndarray | None = None

    def __post_init__(self):
        self.atomic_numbers = np.asarray(self.atomic_numbers, dtype=np.intp)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.atomic_numbers.ndim != 1 or len(self.atomic_numbers) < 1:
            raise DataError("molecule needs at least one atom")
        n = len(self.atomic_numbers)
        if np.any(self.atomic_numbers < 1) or np.any(self.atomic_numbers > MAX_ATOMIC_NUMBER):
            raise DataError(f"atomic numbers must lie in [1, {MAX_ATOMIC_NUMBER}]")
        if self.coords.shape != (n, 3):
            raise DataError(f"coords must have shape ({n}, 3), got {self.coords.shape}")
        if not np.all(np.isfinite(self.coords)):
            raise DataError("coordinates must be finite")
        if min_distance(self.coords) <= 0.0:
            raise DataError("two atoms coincide exactly")
        if self.energy is not None and not np.isfinite(self.energy):
            raise DataError(f"energy label must be finite, got {self.energy}")
        if self.forces is not None:
            self.forces = np.asarray(self.forces, dtype=np.float64)
            if self.forces.shape != (n, 3):
                raise DataError("forces must have shape (N, 3)")
            if not np.all(np.isfinite(self.forces)):
                raise DataError("force labels must be finite")

    @property
    def n_atoms(self) -> int:
        return len(self.atomic_numbers)


@dataclass
class BasisConfig:
    """Radial basis family and its fixed hyperparameters."""

    kind: str = "gaussian"
    n_basis: int = 64
    gamma: float = 10.0      # Gaussian width
    delta: float = 0.1       # Gaussian center spacing, Angstrom
    bessel_cutoff: float = 5.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear", "bessel"):
            raise ConfigError(f"unknown basis kind {self.kind!r}")
        if self.n_basis < 1:
            raise ConfigError("n_basis must be >= 1")
        if self.gamma <= 0 or self.delta <= 0 or self.bessel_cutoff <= 0:
            raise ConfigError("basis hyperparameters must be positive")


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """Plain numpy pairwise distances, for data handling and dumps."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def min_distance(coords: np.ndarray) -> float:
    """Smallest interatomic distance, ``inf`` for one atom."""
    d = distance_matrix(coords)
    np.fill_diagonal(d, np.inf)
    return float(np.min(d))


def random_coords(rng: np.random.Generator, n: int, box: float,
                  min_dist: float) -> np.ndarray:
    """n points uniform in [0, box)^3, no two closer than ``min_dist``.  The
    whole set is drawn up to 200 times, then placed atom by atom, each atom
    redrawn until it keeps its distance; dense molecules need the latter."""
    for _ in range(200):
        coords = rng.uniform(0.0, box, size=(n, 3))
        if min_distance(coords) >= min_dist:
            return coords
    for i in range(n):
        for _ in range(1000):
            c = rng.uniform(0.0, box, 3)
            if i == 0 or np.min(np.linalg.norm(coords[:i] - c, axis=1)) >= min_dist:
                coords[i] = c
                break
        else:
            raise DataError("could not place atoms with the minimum distance; "
                            "increase the box or reduce the atom count")
    return coords


def pairwise_distances(coords: ad.Tensor, pairs: ad.PairIndex) -> ad.Tensor:
    """Differentiable (M,) distances of the i <= j ``pairs``, in their order.
    sqrt sees only the off-diagonal pairs; the N diagonal pairs are appended
    as exact zeros, with an exactly zero gradient w.r.t. coordinates."""
    n = coords.shape[0]
    off = len(pairs.i) - n
    diff = ad.sub(ad.take_rows(coords, pairs.i[:off]), ad.take_rows(coords, pairs.j[:off]))
    r = ad.sqrt(ad.tensor_sum(ad.square(diff), axis=1))
    return ad.pad_axis(r, 0, 0, n)


def gaussian_basis(r: ad.Tensor, cfg: BasisConfig) -> ad.Tensor:
    """exp(-gamma * (r - delta*k)^2) for k = 1..n_basis, appended as last axis."""
    return ad.gaussian(r, cfg.delta * np.arange(1, cfg.n_basis + 1), cfg.gamma)


def linear_basis(r: ad.Tensor, a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """a_k + b_k * r with trainable per-component scalars."""
    rx = ad.reshape(r, r.shape + (1,))
    return ad.add(a, ad.mul(b, rx))


def bessel_basis(r: ad.Tensor, cfg: BasisConfig) -> ad.Tensor:
    """sqrt(2/c) * sin(n pi r / c) / r; the r -> 0 limit n pi / c * sqrt(2/c) is
    substituted where r is numerically zero (a removable singularity)."""
    c = cfg.bessel_cutoff
    freqs = np.arange(1, cfg.n_basis + 1) * np.pi / c
    amp = np.sqrt(2.0 / c)
    tiny = r.data < 1e-10
    rx = ad.reshape(r, r.shape + (1,))
    mask = tiny.astype(r.data.dtype).reshape(r.shape + (1,))
    r_safe = ad.add(rx, mask)
    main = ad.mul(ad.div(ad.sin(ad.mul(rx, freqs)), r_safe), amp)
    limit = mask * (amp * freqs)
    return ad.add(ad.mul(main, 1.0 - mask), limit)


@dataclass
class KernelParams:
    """Trainable state of one layer's two-body kernel."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor
    embed: ad.Tensor | None = None    # (MAX_ATOMIC_NUMBER + 1, d_emb2), atom-aware mode
    lin_a: ad.Tensor | None = None    # (n_basis,), linear basis only
    lin_b: ad.Tensor | None = None


def param(rng: np.random.Generator | None, shape, draw=np.zeros) -> ad.Tensor:
    """A parameter leaf with the array ``draw(shape)``.  Without an ``rng``
    it is a placeholder that holds only its shape, for a checkpoint to fill:
    nothing is drawn or allocated."""
    if rng is None:
        return ad.Tensor(np.broadcast_to(0.0, shape), requires_grad=True)
    return ad.parameter(draw(shape))


def glorot(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> ad.Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return param(rng, (fan_in, fan_out), lambda s: rng.uniform(-limit, limit, size=s))


def init_kernel_params(rng: np.random.Generator | None, cfg: BasisConfig, d_m: int, *,
                       mode: str, d_rbf: int, d_emb2: int) -> KernelParams:
    if mode not in ("plain", "atom_aware"):
        raise ConfigError(f"unknown kernel mode {mode!r}")
    in_dim = cfg.n_basis + (d_emb2 if mode == "atom_aware" else 0)
    embed = None
    if mode == "atom_aware":
        std = 1.0 / np.sqrt(d_emb2)
        embed = param(rng, (MAX_ATOMIC_NUMBER + 1, d_emb2),
                      lambda s: rng.normal(0.0, std, size=s))
    lin_a = lin_b = None
    if cfg.kind == "linear":
        lin_a = param(rng, cfg.n_basis, lambda s: rng.uniform(-1.0, 1.0, size=s))
        lin_b = param(rng, cfg.n_basis, lambda s: rng.uniform(-1.0, 1.0, size=s))
    return KernelParams(
        w1=glorot(rng, in_dim, d_rbf),
        b1=param(rng, d_rbf),
        w2=glorot(rng, d_rbf, d_m),
        b2=param(rng, d_m),
        embed=embed, lin_a=lin_a, lin_b=lin_b,
    )


def expand_basis(r: ad.Tensor, cfg: BasisConfig, params: KernelParams | None) -> ad.Tensor:
    if cfg.kind == "gaussian":
        return gaussian_basis(r, cfg)
    if cfg.kind == "bessel":
        return bessel_basis(r, cfg)
    return linear_basis(r, params.lin_a, params.lin_b)


@dataclass
class PairGeometry:
    """What the kernels of all layers share for one molecule: the i <= j
    pairs, their distances and, for the parameter-free bases, their basis."""

    pairs: ad.PairIndex
    r: ad.Tensor                 # (M,)
    basis: ad.Tensor | None      # (M, n_basis); None for the linear basis


def pair_geometry(pairs: ad.PairIndex, r: ad.Tensor, cfg: BasisConfig) -> PairGeometry:
    """The ``pairs`` with their distances ``r`` and parameter-free basis."""
    basis = None if cfg.kind == "linear" else expand_basis(r, cfg, None)
    return PairGeometry(pairs, r, basis)


def kernel_tensor(params: KernelParams, cfg: BasisConfig, geo: PairGeometry,
                  atomic_numbers: np.ndarray | None) -> ad.Tensor:
    """Full N x N x d_m kernel for one layer, from the :class:`PairGeometry`
    shared by all layers.  The MLP runs on the M = N(N+1)/2 pairs i <= j
    only, and its output is mirrored to N x N, so the kernel is symmetric by
    construction.  In atom-aware mode the first layer's weights split by rows
    into basis rows W_r and code rows W_z; the code Z(z_i) + Z(z_j) and the
    bias b1 then enter as P_i + P_j with the per-atom term P = Z(z) W_z + b1/2,
    which equals [g; Z(z_i) + Z(z_j)] W1 + b1 by linearity.
    """
    g = geo.basis if geo.basis is not None else expand_basis(geo.r, cfg, params)
    if params.embed is None:
        pre = ad.add(ad.einsum("nd,de->ne", g, params.w1), params.b1)
    else:
        if atomic_numbers is None:
            raise ConfigError("atom-aware kernel needs atomic numbers")
        z = np.asarray(atomic_numbers, dtype=np.intp)
        if np.any(z < 1) or np.any(z > MAX_ATOMIC_NUMBER):
            raise DataError("atomic number out of range")
        nb = cfg.n_basis
        w_r = ad.slice_axis(params.w1, 0, 0, nb)
        w_z = ad.slice_axis(params.w1, 0, nb, params.w1.shape[0])
        per_atom = ad.add(ad.einsum("nd,de->ne", ad.take_rows(params.embed, z), w_z),
                          ad.mul(params.b1, 0.5))                    # N x d_rbf
        pre = ad.add_pair_sum(ad.einsum("nd,de->ne", g, w_r), per_atom, geo.pairs)
    h = ad.swish(pre)
    return ad.expand_pairs(ad.add(ad.einsum("nd,de->ne", h, params.w2), params.b2), geo.pairs)
