import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geoattn import training
from geoattn.cli import main
from geoattn.config import KEYS, RunConfig
from geoattn.data import parse_xyz_frames, write_xyz, write_xyz_frames
from geoattn.errors import ConfigError
from geoattn.geometry import Molecule
from geoattn.gradcheck import force_gradcheck
from geoattn.model import GeoTModel, ModelConfig, load_checkpoint, save_checkpoint

TINY = """
# tiny run for CLI tests
n_layers = 1
d_m = 8
n_heads = 2
d_h = 16
n_basis = 8
d_rbf = 8
d_emb2 = 4
synthetic_molecules = 10
min_atoms = 3
max_atoms = 4
batch_size = 4
max_steps = 2
eval_every = 1
patience = 100
warmup_steps = 10
lr = 1e-3
"""


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    monkeypatch.delenv("GEOATTN_OUT_DIR", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"out_dir = {tmp_path / 'out'}\n")
    return cfg, tmp_path


def train_once(tiny_run):
    cfg, tmp_path = tiny_run
    assert main(["train", str(cfg)]) == 0
    return tmp_path / "out"


class TestRunConfig:
    def test_defaults_and_parse(self):
        cfg = RunConfig.parse("d_m = 32\nlr = 1e-3  # comment\n")
        assert cfg["d_m"] == 32 and cfg["lr"] == 1e-3
        assert cfg["n_heads"] == 4   # untouched default

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("dm = 32\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("d_m = large\n")

    def test_override_precedence(self):
        cfg = RunConfig.parse("d_m = 32\n").override({"d_m": "16"})
        assert cfg["d_m"] == 16

    def test_bool_spellings(self):
        cfg = RunConfig.parse("use_attn_scale = yes\nuse_forces = 0\n")
        assert cfg["use_attn_scale"] is True
        assert cfg["use_forces"] is False


# every run-config key with its type and default; a change here changes the
# CLI and the config-file format
EXPECTED_KEYS = {
    "n_layers": (int, 4),
    "d_m": (int, 64),
    "n_heads": (int, 4),
    "d_h": (int, 128),
    "block_kind": (str, "sequential"),
    "kernel_mode": (str, "atom_aware"),
    "use_attn_scale": (bool, False),
    "use_softmax_baseline": (bool, False),
    "scale_per_head": (bool, True),
    "d_rbf": (int, 64),
    "d_emb2": (int, 64),
    "force_sign": (str, "paper"),
    "basis_kind": (str, "gaussian"),
    "n_basis": (int, 64),
    "gamma": (float, 10.0),
    "delta": (float, 0.1),
    "bessel_cutoff": (float, 5.0),
    "lr": (float, 2e-4),
    "warmup_steps": (int, 3000),
    "decay_factor": (float, 0.95),
    "decay_every": (int, 200_000),
    "batch_size": (int, 32),
    "max_epochs": (int, 300),
    "max_steps": (int, 0),
    "eval_every": (int, 10_000),
    "force_weight": (float, 1000.0),
    "use_forces": (bool, True),
    "normalize_targets": (bool, True),
    "patience": (int, 10),
    "seed": (int, 0),
    "data_path": (str, ""),
    "train_fraction": (float, 0.8),
    "val_fraction": (float, 0.1),
    "test_fraction": (float, 0.1),
    "out_dir": (str, "runs"),
    "synthetic_molecules": (int, 600),
    "min_atoms": (int, 4),
    "max_atoms": (int, 8),
    "elements": (tuple, (1, 6, 7, 8)),    # spelled 1,6,7,8 in files and flags
    "box": (float, 4.0),
}

# a checkpoint's config JSON, with every ModelConfig field name
CHECKPOINT_CONFIG = """{"n_layers": 2, "d_m": 8, "n_heads": 2, "d_h": 16,
 "block_kind": "parallel_mlp", "kernel_mode": "plain",
 "basis": {"kind": "bessel", "n_basis": 6, "gamma": 10.0, "delta": 0.1,
           "bessel_cutoff": 4.0},
 "use_attn_scale": true, "use_softmax_baseline": false,
 "scale_per_head": false, "d_rbf": 8, "d_emb2": 4, "force_sign": "physical",
 "out_shift": -1.5, "out_scale": 0.25, "atom_refs": {"1": -0.5, "6": -2.0}}"""


class TestConfigContract:
    def test_key_table(self):
        assert KEYS == EXPECTED_KEYS
        for key, (typ, default) in KEYS.items():
            assert type(default) is typ, key

    def test_checkpoint_config_json_loads(self, tmp_path):
        fields = json.loads(CHECKPOINT_CONFIG)
        cfg = ModelConfig(**fields)
        assert dataclasses.asdict(cfg) == fields
        blob = tmp_path / "m.npz"
        model = GeoTModel.init(cfg, seed=0)
        arrays = {f"param:{k}": t.data for k, t in model.params().items()}
        np.savez(blob, __config__=np.frombuffer(CHECKPOINT_CONFIG.encode(),
                                                dtype=np.uint8), **arrays)
        assert dataclasses.asdict(load_checkpoint(blob).config) == fields

    def test_elements_parse_to_tuple(self):
        assert RunConfig.parse("elements = 1, 8\n")["elements"] == (1, 8)
        with pytest.raises(ConfigError):
            RunConfig.parse("elements = H,O\n")

    @pytest.mark.parametrize("command", ["train", "ablate-basis"])
    def test_help_lists_keys_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for key, (typ, _) in KEYS.items():
            assert re.search(rf"--{key} V\s+{typ.__name__}, default ", text), key
        assert re.search(r"--n_basis V\s+int, default 64\n", text)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_config_key(self, tiny_run):
        cfg, _ = tiny_run
        cfg.write_text(cfg.read_text() + "banana = 3\n")
        assert main(["train", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("lr", "nan"), ("lr", "inf"), ("force_weight", "-inf"),
        ("n_heads", "0"), ("d_m", "0"), ("n_layers", "0"), ("d_h", "0"),
        ("d_rbf", "0"), ("d_emb2", "0"), ("max_steps", "-1"), ("patience", "0"),
        ("force_weight", "-5")])
    def test_bad_value_is_config_error(self, tiny_run, key, value):
        cfg, tmp_path = tiny_run
        assert main(["train", str(cfg), f"--{key}={value}"]) == 2
        assert not (tmp_path / "out").exists()

    def test_out_of_range_fraction_is_config_error(self, tiny_run, capsys):
        cfg, tmp_path = tiny_run
        args = ["--train_fraction=0.9", "--val_fraction=0.2", "--test_fraction=-0.1"]
        assert main(["train", str(cfg), *args]) == 2
        assert "split fractions must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frame", [
        "energy=nan\nH 0 0 0\nH 1 0 0", "energy=0\nH 0 0 0 inf 0 0\nH 1 0 0 0 0 0"],
        ids=["energy", "forces"])
    def test_nonfinite_label_is_data_error(self, tiny_run, frame, capsys):
        cfg, tmp_path = tiny_run
        xyz = self.bad_sixth_frame(tmp_path, frame)
        assert main(["train", str(cfg), f"--data_path={xyz}"]) == 2
        assert "error: line 21: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_refused_ablation_makes_no_out_dir(self, tiny_run, capsys):
        cfg, tmp_path = tiny_run
        xyz = self.bad_sixth_frame(tmp_path, "energy=nan\nH 0 0 0\nH 1 0 0")
        assert main(["ablate-basis", str(cfg), f"--data_path={xyz}"]) == 2
        assert "error: line 21: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("normalize", ["true", "false"])
    def test_unlabeled_training_frame_is_data_error(self, tiny_run, normalize, capsys):
        # forces but no energy= label: the sixth frame is molecule 5 of the data
        cfg, tmp_path = tiny_run
        xyz = self.bad_sixth_frame(tmp_path, "\nH 0 0 0 0 0 1\nH 1 0 0 0 0 -1")
        assert main(["train", str(cfg), f"--data_path={xyz}",
                     f"--normalize_targets={normalize}"]) == 2
        assert "error: train split: molecule 5 has no energy label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "ablate-basis"])
    @pytest.mark.parametrize("split, args", [
        ("val", ["--synthetic_molecules=5"]),
        ("train", ["--train_fraction=0", "--val_fraction=0.5", "--test_fraction=0.5"])])
    def test_empty_split_is_refused(self, tiny_run, command, split, args, capsys):
        cfg, tmp_path = tiny_run
        assert main([command, str(cfg), *args]) == 2
        assert f"error: the {split} split is empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def bad_sixth_frame(tmp_path, frame):
        """Ten 4-line frames; the sixth (first line 21) is ``frame``."""
        good = "2\nenergy=1\nH 0 0 0 0 0 1\nH 1 0 0 0 0 -1\n"
        xyz = tmp_path / "data.xyz"
        xyz.write_text(good * 5 + f"2\n{frame}\n" + good * 4)
        return xyz

    @staticmethod
    def write_bad_checkpoint(path, case):
        if case == "text":
            path.write_text("hello\n")
        elif case == "truncated_zip":
            np.savez(path, __config__=np.frombuffer(CHECKPOINT_CONFIG.encode(), dtype=np.uint8),
                     x=np.arange(100.0))
            path.write_bytes(path.read_bytes()[:300])
        elif case == "bare_npy":
            with open(path, "wb") as fh:
                np.save(fh, np.arange(3.0))
        elif case == "corrupt_member":
            model = GeoTModel.init(ModelConfig(**json.loads(CHECKPOINT_CONFIG)), seed=0)
            save_checkpoint(model, path)
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF        # inside a parameter's zip member
            path.write_bytes(bytes(data))
        elif case == "no_config":
            np.savez(path, x=np.arange(3.0))
        else:
            np.savez(path, __config__=np.frombuffer(b'{"n_layers": 2,', dtype=np.uint8))

    @pytest.mark.parametrize("case", ["text", "truncated_zip", "bare_npy", "corrupt_member",
                                      "no_config", "bad_json"])
    def test_not_a_checkpoint_is_config_error(self, tmp_path, capsys, case):
        blob = tmp_path / "model.npz"
        self.write_bad_checkpoint(blob, case)
        xyz = tmp_path / "m.xyz"
        xyz.write_text("1\nenergy=0\nH 0 0 0\n")
        assert main(["forces", str(blob), str(xyz)]) == 2
        err = capsys.readouterr().err
        assert str(blob) in err
        assert "runtime error" not in err and "allow_pickle" not in err

    def test_checkpoint_with_unknown_config_field(self, tmp_path):
        blob = tmp_path / "m.npz"
        model = GeoTModel.init(ModelConfig(**json.loads(CHECKPOINT_CONFIG)), seed=0)
        arrays = {f"param:{k}": t.data for k, t in model.params().items()}
        cfg = CHECKPOINT_CONFIG.replace('"n_layers"', '"banana": 1, "n_layers"')
        np.savez(blob, __config__=np.frombuffer(cfg.encode(), dtype=np.uint8), **arrays)
        xyz = tmp_path / "m.xyz"
        xyz.write_text("1\nenergy=0\nH 0 0 0\n")
        assert main(["eval", str(blob), str(xyz)]) == 2

    @pytest.mark.parametrize("dtype", [complex, bool, str])
    def test_non_float_parameter_is_config_error(self, tmp_path, capsys, dtype):
        # complex used to load with its imaginary part dropped, bool as 0/1
        blob = tmp_path / "m.npz"
        model = GeoTModel.init(ModelConfig(**json.loads(CHECKPOINT_CONFIG)), seed=0)
        arrays = {f"param:{k}": t.data for k, t in model.params().items()}
        arrays["param:w_pool"] = np.ones(model.w_pool.shape, dtype=dtype)
        np.savez(blob, __config__=np.frombuffer(CHECKPOINT_CONFIG.encode(), dtype=np.uint8),
                 **arrays)
        xyz = tmp_path / "m.xyz"
        xyz.write_text("1\nenergy=0\nH 0 0 0\n")
        assert main(["forces", str(blob), str(xyz)]) == 2
        err = capsys.readouterr().err
        assert str(blob) in err and "'w_pool'" in err
        assert str(arrays["param:w_pool"].dtype) in err

    def test_missing_checkpoint(self, tmp_path):
        xyz = tmp_path / "m.xyz"
        xyz.write_text("1\nenergy=0\nH 0 0 0\n")
        assert main(["eval", str(tmp_path / "none.npz"), str(xyz)]) == 2


class TestTrainCommand:
    def test_artifacts(self, tiny_run):
        out = train_once(tiny_run)
        assert (out / "metrics.csv").exists()
        assert (out / "final.npz").exists()
        assert (out / "best.npz").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,split,metric,value"

    def test_determinism_byte_identical_metrics(self, tiny_run):
        cfg, tmp_path = tiny_run
        assert main(["train", str(cfg), "--out_dir", str(tmp_path / "a")]) == 0
        assert main(["train", str(cfg), "--out_dir", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_env_out_dir_override(self, tiny_run, monkeypatch):
        cfg, tmp_path = tiny_run
        monkeypatch.setenv("GEOATTN_OUT_DIR", str(tmp_path / "env_out"))
        assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "env_out" / "metrics.csv").exists()

    def test_flag_overrides_config(self, tiny_run):
        cfg, tmp_path = tiny_run
        out = tmp_path / "c"
        assert main(["train", str(cfg), "--out_dir", str(out),
                     "--max_steps", "1", "--eval_every", "1"]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert max(int(r.split(",")[0]) for r in rows) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")     # inf/NaN on purpose
    def test_diverged_run_keeps_artifacts(self, tiny_run, monkeypatch):
        cfg, tmp_path = tiny_run
        inner = training.group_losses
        sizes = []

        def faulty(*args, **kwargs):
            if sum(sizes) == 4:          # first group of step 2, before its forward
                b1 = args[0].layers[0].ffn_b1.data.copy()
                b1[0] = np.inf
                args[0].layers[0].ffn_b1.data = b1
            sizes.append(len(args[1]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(training, "group_losses", faulty)
        assert main(["train", str(cfg)]) == 1
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
        assert (out / "best.npz").exists()
        assert not (out / "final.npz").exists()
        best = load_checkpoint(out / "best.npz")        # refuses non-finite values
        assert all(np.isfinite(t.data).all() for t in best.params().values())


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")     # inf/NaN on purpose
    @pytest.mark.parametrize("flags", [
        ["--eval_every", "1"], ["--max_steps", "1", "--eval_every", "100"]],
        ids=["periodic_eval", "final_eval"])
    def test_nonfinite_validation_keeps_artifacts(self, tiny_run, flags):
        # lr 1e300: step 1 is finite, the validation pass after it is not
        cfg, tmp_path = tiny_run
        assert main(["train", str(cfg), "--lr", "1e300", *flags]) == 1
        out = tmp_path / "out"
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["0", "val"], ["1", "train"]]
        assert (out / "best.npz").exists()
        assert not (out / "final.npz").exists()


class TestEvalCommand:
    def test_reports_both_targets(self, tiny_run, capsys):
        cfg, tmp_path = tiny_run
        out = train_once(tiny_run)
        data = parse_xyz_frames((tmp_path / "eval.xyz").read_text()) \
            if (tmp_path / "eval.xyz").exists() else None
        model = load_checkpoint(out / "final.npz")
        mol = Molecule([1, 6], [[0, 0, 0], [1.2, 0, 0]], energy=-1.0,
                       forces=np.zeros((2, 3)))
        xyz = tmp_path / "eval.xyz"
        xyz.write_text(write_xyz(mol))
        report = tmp_path / "report.csv"
        assert main(["eval", str(out / "final.npz"), str(xyz),
                     "--out", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "target,mae"
        assert {l.split(",")[0] for l in lines[1:]} == {"energy", "forces"}
        e_mae = float(lines[1].split(",")[1])
        assert e_mae == pytest.approx(abs(model.energy(mol) - mol.energy),
                                      rel=1e-10)

    def test_force_only_frames_are_scored(self, tiny_run, capsys):
        # three frames with forces and no energy, then one with both labels
        cfg, tmp_path = tiny_run
        out = train_once(tiny_run)
        model = load_checkpoint(out / "final.npz")
        rng = np.random.default_rng(7)
        mols = [Molecule([1, 6], [[0, 0, 0], [1.0 + 0.1 * k, 0, 0]],
                         forces=rng.normal(size=(2, 3))) for k in range(3)]
        mols.append(Molecule([1, 8], [[0, 0, 0], [0, 1.1, 0]], energy=-1.0,
                             forces=rng.normal(size=(2, 3))))
        xyz = tmp_path / "forces.xyz"
        xyz.write_text(write_xyz_frames(mols))
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["eval", str(out / "final.npz"), str(xyz),
                     "--out", str(report)]) == 0
        printed = capsys.readouterr().out
        assert "MAE[energy]" in printed and "over 1 of 4 frames" in printed
        assert "MAE[forces]" in printed and "over 4 of 4 frames" in printed
        lines = report.read_text().strip().splitlines()
        assert [l.split(",")[0] for l in lines] == ["target", "energy", "forces"]
        # labels are physical forces; the model's default sign is the paper's
        want_f = np.mean([np.mean(np.abs(-model.forces(m) - m.forces)) for m in mols])
        assert float(lines[2].split(",")[1]) == pytest.approx(want_f, rel=1e-12)
        assert float(lines[1].split(",")[1]) == pytest.approx(
            abs(model.energy(mols[3]) + 1.0), rel=1e-10)

    def test_unlabeled_input_is_usage_error(self, tiny_run, tmp_path):
        out = train_once(tiny_run)
        xyz = tmp_path / "plain.xyz"
        xyz.write_text("1\n\nH 0 0 0\n")
        assert main(["eval", str(out / "final.npz"), str(xyz)]) == 2


class TestForcesCommand:
    def test_sign_flag_flips_output(self, tiny_run, tmp_path):
        out = train_once(tiny_run)
        xyz = tmp_path / "in.xyz"
        xyz.write_text("2\n\nH 0 0 0\nO 1.1 0.2 0\n")
        fa = tmp_path / "paper.xyz"
        fb = tmp_path / "phys.xyz"
        assert main(["forces", str(out / "final.npz"), str(xyz),
                     "--out", str(fa)]) == 0
        assert main(["forces", str(out / "final.npz"), str(xyz),
                     "--sign", "physical", "--out", str(fb)]) == 0
        ma = parse_xyz_frames(fa.read_text())[0]
        mb = parse_xyz_frames(fb.read_text())[0]
        np.testing.assert_allclose(ma.forces, -mb.forces, atol=1e-12)
        assert ma.energy == mb.energy

    def test_frames_in_groups_match_one_by_one(self, tiny_run, tmp_path):
        # small frames run several to a graph; the output keeps frame order
        out = train_once(tiny_run)
        model = load_checkpoint(out / "final.npz")
        rng = np.random.default_rng(3)
        mols = [Molecule(z, 1.1 * np.arange(len(z))[:, None] * [1, 0, 0]
                         + 0.1 * rng.normal(size=(len(z), 3)))
                for z in ([1, 6], [8, 1, 1], [6, 6, 1, 1, 1], [1, 8])]
        xyz, res = tmp_path / "in.xyz", tmp_path / "out.xyz"
        xyz.write_text(write_xyz_frames(mols))
        assert main(["forces", str(out / "final.npz"), str(xyz), "--out", str(res)]) == 0
        got = parse_xyz_frames(res.read_text())
        assert len(got) == len(mols)
        for g, m in zip(got, mols):
            e, f = model.energy_and_forces(m)
            np.testing.assert_array_equal(g.coords, m.coords)
            assert g.energy == pytest.approx(e, rel=1e-10)
            np.testing.assert_allclose(g.forces, f, rtol=1e-10, atol=1e-12)


class TestGradcheckCommand:
    def test_passes_on_real_model(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_trials_warns_and_passes(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().out.lower()

    def test_negative_trials_is_usage_error(self, capsys):
        assert main(["gradcheck", "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "--trials" in captured.err

    def test_meta_corrupted_forces_fail(self, monkeypatch):
        # the checker itself must notice deliberately wrong forces
        inner = GeoTModel.forces
        monkeypatch.setattr(GeoTModel, "forces",
                            lambda model, mol: inner(model, mol) + 0.05)
        report = force_gradcheck(n_trials=2, seed=0)
        assert not report.passed

    def test_meta_nan_forces_fail(self, monkeypatch):
        # NaN is not below the threshold: a NaN error in any trial fails the check
        inner = GeoTModel.forces
        calls = []

        def nan_in_second_trial(model, mol):
            calls.append(1)
            return inner(model, mol) * (np.nan if len(calls) == 2 else 1.0)

        monkeypatch.setattr(GeoTModel, "forces", nan_in_second_trial)
        report = force_gradcheck(n_trials=3, seed=0)
        assert np.isnan(report.per_trial[1]) and np.isnan(report.max_rel_error)
        assert not report.passed


class TestAblateCommand:
    def test_three_rows(self, tiny_run):
        cfg, tmp_path = tiny_run
        assert main(["ablate-basis", str(cfg),
                     "--out_dir", str(tmp_path / "abl")]) == 0
        lines = (tmp_path / "abl" / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "basis,val_mae"
        assert [l.split(",")[0] for l in lines[1:]] == ["gaussian", "linear",
                                                        "bessel"]
        for l in lines[1:]:
            assert np.isfinite(float(l.split(",")[1]))


class TestAttnDumpCommand:
    def test_row_counts_and_distance_column(self, tiny_run, tmp_path):
        out = train_once(tiny_run)
        xyz = tmp_path / "mol.xyz"
        mol = Molecule([1, 6, 8], [[0, 0, 0], [1.2, 0, 0], [0, 1.4, 0.3]])
        xyz.write_text(write_xyz(mol))
        prefix = tmp_path / "dump" / "attn"
        assert main(["attn-dump", str(out / "final.npz"), str(xyz),
                     "--out-prefix", str(prefix)]) == 0
        attn = (tmp_path / "dump" / "attn_attention.csv").read_text().splitlines()
        assert attn[0] == "layer,head_avg,i,j,value"
        assert len(attn) == 1 + 1 * 3 * 3       # one layer, 3x3 map
        assert all(r.split(",")[1] == "avg" for r in attn[1:])
        pairs = (tmp_path / "dump" / "attn_pairs.csv").read_text().splitlines()
        assert pairs[0] == "layer,i,j,distance,norm"
        d = np.linalg.norm(mol.coords[:, None] - mol.coords[None], axis=-1)
        for row in pairs[1:]:
            _, i, j, dist, norm = row.split(",")
            assert float(dist) == pytest.approx(d[int(i), int(j)], abs=1e-12)
            assert float(norm) >= 0.0

    def test_multi_frame_input_is_usage_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        save_checkpoint(GeoTModel.init(ModelConfig(n_layers=1, d_m=8, n_heads=2)), ckpt)
        xyz = tmp_path / "two.xyz"
        mol = Molecule([1, 6], [[0, 0, 0], [1.2, 0, 0]])
        xyz.write_text(write_xyz_frames([mol, mol]))
        prefix = tmp_path / "dump" / "attn"
        assert main(["attn-dump", str(ckpt), str(xyz), "--out-prefix", str(prefix)]) == 2
        assert "holds 2" in capsys.readouterr().err
        assert not (tmp_path / "dump").exists()


KEEP_HEAP_SCRIPT = """
import resource
import numpy as np
from geoattn import cli
from geoattn.geometry import Molecule
from geoattn.model import GeoTModel, ModelConfig
if not cli._keep_heap():
    raise SystemExit(3)
rng = np.random.default_rng(0)
mol = Molecule(rng.choice((1, 6, 7, 8), size=64), rng.uniform(0.0, 9.0, (64, 3)))
model = GeoTModel.init(ModelConfig(), seed=1)
model.energy_and_forces(mol)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model.energy_and_forces(mol)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestKeepHeap:
    def test_second_force_call_reuses_the_heap(self):
        # minor page faults, not time: a call that frees its temporaries back
        # to the OS faults them in again on the next call (about 16 000 here)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", KEEP_HEAP_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        if run.returncode == 3:
            pytest.skip("mallopt is not available")
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 1000
