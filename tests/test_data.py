import numpy as np
import pytest

from geoattn.data import (Dataset, load_dataset, parse_xyz_frames,
                          split_dataset, write_xyz, write_xyz_frames)
from geoattn.errors import ConfigError, ParseError
from geoattn.geometry import Molecule


def random_labeled_molecule(rng, n=None):
    n = n or int(rng.integers(2, 7))
    return Molecule(rng.choice([1, 6, 7, 8, 16], n),
                    rng.uniform(-4, 4, (n, 3)) + np.arange(n)[:, None] * 10,
                    energy=float(rng.normal()),
                    forces=rng.normal(size=(n, 3)))


class TestParse:
    def test_minimal(self):
        (mol,) = parse_xyz_frames("1\ncomment\nH 0 0 0\n")
        assert mol.n_atoms == 1
        assert mol.atomic_numbers[0] == 1
        assert mol.energy is None
        assert mol.forces is None

    def test_energy_comment(self):
        (mol,) = parse_xyz_frames("1\nenergy=-7.25 extra stuff\nO 1 2 3\n")
        assert mol.energy == -7.25
        np.testing.assert_array_equal(mol.coords, [[1, 2, 3]])

    def test_forces_columns(self):
        (mol,) = parse_xyz_frames("2\nenergy=0\nH 0 0 0 1 2 3\nH 1 0 0 -1 -2 -3\n")
        np.testing.assert_array_equal(mol.forces, [[1, 2, 3], [-1, -2, -3]])

    def test_multi_frame(self):
        text = "1\n\nH 0 0 0\n2\n\nC 0 0 0\nO 1 0 0\n"
        mols = parse_xyz_frames(text)
        assert [m.n_atoms for m in mols] == [1, 2]


class TestParseErrors:
    def test_bad_count_line(self):
        with pytest.raises(ParseError) as e:
            parse_xyz_frames("pear\n\nH 0 0 0\n")
        assert e.value.line == 1

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_xyz_frames("3\n\nH 0 0 0\n")

    def test_bad_symbol_reports_line(self):
        with pytest.raises(ParseError) as e:
            parse_xyz_frames("2\n\nH 0 0 0\nQq 1 0 0\n")
        assert e.value.line == 4

    def test_bad_column_count(self):
        with pytest.raises(ParseError) as e:
            parse_xyz_frames("1\n\nH 0 0\n")
        assert e.value.line == 3

    def test_non_numeric_coordinate(self):
        with pytest.raises(ParseError) as e:
            parse_xyz_frames("1\n\nH 0 zero 0\n")
        assert e.value.line == 3

    @pytest.mark.parametrize("frame", [
        "energy=nan\nH 0 0 0\nH 1 0 0",
        "energy=0\nH 0 0 0 inf 0 0\nH 1 0 0 0 0 0",
        "energy=0\nH 1 0 0\nH 1 0 0"], ids=["energy", "forces", "coinciding"])
    def test_invalid_molecule_names_its_frame(self, frame):
        # the Molecule's own checks fail; the error names the frame's first line
        good = "2\nenergy=1\nH 0 0 0\nH 1 0 0\n"
        with pytest.raises(ParseError) as e:
            parse_xyz_frames(good * 2 + f"2\n{frame}\n" + good)
        assert e.value.line == 9
        assert str(e.value).startswith("line 9: ")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_xyz_frames("")
        with pytest.raises(ParseError):
            parse_xyz_frames("\n\n")


class TestRoundTrip:
    def test_single_bit_exact(self, rng):
        mol = random_labeled_molecule(rng)
        (back,) = parse_xyz_frames(write_xyz(mol))
        np.testing.assert_array_equal(back.atomic_numbers, mol.atomic_numbers)
        np.testing.assert_array_equal(back.coords, mol.coords)
        np.testing.assert_array_equal(back.forces, mol.forces)
        assert back.energy == mol.energy

    def test_many_frames_property(self, rng):
        mols = [random_labeled_molecule(rng) for _ in range(20)]
        back = parse_xyz_frames(write_xyz_frames(mols))
        assert len(back) == 20
        for a, b in zip(mols, back):
            np.testing.assert_array_equal(a.coords, b.coords)
            assert a.energy == b.energy

    def test_unlabeled_round_trip(self, rng):
        mol = Molecule([6, 8], [[0, 0, 0], [1.1, 0, 0]])
        (back,) = parse_xyz_frames(write_xyz(mol))
        assert back.energy is None and back.forces is None


class TestSplits:
    def make(self, rng, n):
        return Dataset([random_labeled_molecule(rng) for _ in range(n)])

    def test_floor_sizes(self, rng):
        ds = split_dataset(self.make(rng, 10), (0.8, 0.1, 0.1), seed=0)
        assert (len(ds.splits["train"]), len(ds.splits["val"]),
                len(ds.splits["test"])) == (8, 1, 1)

    def test_remainder_goes_to_train(self, rng):
        ds = split_dataset(self.make(rng, 11), (0.8, 0.1, 0.1), seed=0)
        assert (len(ds.splits["train"]), len(ds.splits["val"]),
                len(ds.splits["test"])) == (9, 1, 1)

    def test_partition_is_exact(self, rng):
        ds = split_dataset(self.make(rng, 37), (0.6, 0.2, 0.2), seed=3)
        joined = np.concatenate([ds.splits[k] for k in ("train", "val", "test")])
        np.testing.assert_array_equal(np.sort(joined), np.arange(37))

    def test_seed_determinism(self, rng):
        a = split_dataset(self.make(rng, 30), seed=5).splits
        b = split_dataset(self.make(rng, 30), seed=5).splits
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_bad_fractions(self, rng):
        with pytest.raises(ConfigError):
            split_dataset(self.make(rng, 10), (0.5, 0.2, 0.2), seed=0)
        # they sum to 1, but one is negative
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            split_dataset(self.make(rng, 20), (0.9, 0.2, -0.1), seed=0)

    def test_unknown_split_name(self, rng):
        ds = split_dataset(self.make(rng, 10), seed=0)
        with pytest.raises(ConfigError):
            ds.subset("holdout")


class TestLoadDataset:
    def test_file_round_trip(self, rng, tmp_path):
        mols = [random_labeled_molecule(rng) for _ in range(12)]
        path = tmp_path / "data.xyz"
        path.write_text(write_xyz_frames(mols))
        ds = load_dataset(path, (0.5, 0.25, 0.25), seed=0)
        assert len(ds) == 12
        assert len(ds.subset("val")) == 3
