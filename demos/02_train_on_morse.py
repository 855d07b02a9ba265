"""Train a small model on the synthetic Morse dataset and watch the
validation energy MAE drop.

Labels come from a closed-form sum of pairwise Morse potentials, so the
dataset is exactly self-consistent: the forces really are the negative
gradient of the energy.  The composite loss supervises both at once,
which requires differentiating through a gradient (double backward).

Takes about 8 s on one core of a 2-CPU VM.
"""

import geoattn as ga
from geoattn.data import split_dataset
from geoattn.training import SyntheticSpec, TrainConfig, generate_synthetic, train

spec = SyntheticSpec(n_molecules=120, min_atoms=3, max_atoms=5, box=4.0)
data = split_dataset(generate_synthetic(spec, seed=0), (0.8, 0.2, 0.0), seed=0)

config = ga.ModelConfig(n_layers=2, d_m=32, n_heads=4, d_h=64,
                        basis=ga.BasisConfig(n_basis=32), d_rbf=32, d_emb2=16)
model = ga.GeoTModel.init(config, seed=1)

cfg = TrainConfig(lr=1e-3, warmup_steps=100, batch_size=4,
                  max_steps=400, eval_every=50, patience=100)
result = train(model, data, cfg)

print(f"stopped: {result.stopped} after {result.steps_run} steps")
for step, split, metric, value in result.metrics:
    if split == "val":
        print(f"  step {step:4d}  val energy MAE {value:.4f}")
print(f"best val MAE: {result.best_val_mae:.4f}")
