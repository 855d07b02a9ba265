"""Inspect the geometry-gated attention maps.

Because every attention logit is gated by a learned function of the
pairwise distance, the head-averaged attention magnitude |A'_ij| carries a
distance structure even in an untrained model.  This script bins the map
by distance and prints the profile.
"""

import numpy as np

import geoattn as ga
from geoattn.gradcheck import random_molecule

rng = np.random.default_rng(3)

config = ga.ModelConfig(n_layers=3, d_m=32, n_heads=4, d_h=64,
                        basis=ga.BasisConfig(n_basis=32), d_rbf=32, d_emb2=16)
model = ga.GeoTModel.init(config, seed=0)

mol = random_molecule(rng, 10, box=5.0)
trace = []
model.forward_parts(mol, trace=trace)

dist = np.linalg.norm(mol.coords[:, None] - mol.coords[None], axis=-1)
off = ~np.eye(mol.n_atoms, dtype=bool)

for layer, rec in enumerate(trace):     # one record per layer, in order
    norm = rec.norm_map()[0]     # molecule 0 of a group of one
    print(f"layer {layer}:")
    edges = np.linspace(dist[off].min(), dist[off].max(), 6)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = off & (dist >= lo) & (dist < hi + 1e-12)
        if sel.any():
            bar = "#" * int(40 * norm[sel].mean() / norm[off].max())
            print(f"  r in [{lo:4.2f}, {hi:4.2f})  mean |A'| "
                  f"{norm[sel].mean():.4f} {bar}")
