import numpy as np
import pytest

from geoattn import training
from geoattn.cli import main
from geoattn.config import RunConfig
from geoattn.data import parse_xyz_frames, write_xyz
from geoattn.errors import ConfigError
from geoattn.geometry import Molecule
from geoattn.gradcheck import force_gradcheck
from geoattn.model import load_checkpoint

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


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_config_key(self, tiny_run):
        cfg, _ = tiny_run
        cfg.write_text(cfg.read_text() + "banana = 3\n")
        assert main(["train", str(cfg)]) == 2

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

    def test_diverged_run_keeps_artifacts(self, tiny_run, monkeypatch):
        cfg, tmp_path = tiny_run
        inner = training.molecule_loss
        calls = []

        def faulty(model, mol, train_cfg):
            calls.append(1)
            if len(calls) == 5:          # first molecule of step 2
                model.layers[0].ffn_b1.data[0] = np.inf
            return inner(model, mol, train_cfg)

        monkeypatch.setattr(training, "molecule_loss", faulty)
        assert main(["train", str(cfg)]) == 1
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
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


class TestGradcheckCommand:
    def test_passes_on_real_model(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_trials_warns_and_passes(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().out.lower()

    def test_meta_corrupted_forces_fail(self):
        # the checker itself must notice a deliberately wrong force function
        bad = lambda model, mol: model.forces(mol) + 0.05
        report = force_gradcheck(n_trials=2, seed=0, force_fn=bad)
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
