"""Geometry-gated, softmax-free transformer for molecular energies and
forces, with a self-contained reverse-mode autodiff engine."""

from . import autodiff
from .attention import (AttentionRecord, attn_scale, geo_attention_logits,
                        geo_msa, qkv_project)
from .data import Dataset, parse_xyz_frames, split_dataset, write_xyz
from .geometry import (BasisConfig, Molecule, bessel_basis, gaussian_basis,
                       kernel_tensor, linear_basis, pairwise_distances)
from .model import GeoTModel, ModelConfig, load_checkpoint, save_checkpoint
from .training import (Adam, SyntheticSpec, TrainConfig, composite_loss,
                       generate_synthetic, lr_schedule, train)

__version__ = "0.1.0"
