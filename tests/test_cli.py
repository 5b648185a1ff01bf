import pytest

from pathheat import cli
from pathheat.errors import DomainError, InputError


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_removed_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "seed = 3\neps = 0.1\n")
        with pytest.raises(InputError, match="'eps'"):
            cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])

    def test_misspelled_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "seed = 3\nn_sample = 100\n")
        with pytest.raises(InputError, match="'n_sample'"):
            cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])

    def test_known_keys_accepted(self, tmp_path):
        cfg = _write(tmp_path, "seed = 3\nsteps = 8\nn_samples = 16\n"
                               "terminal = terminal_value  # comment\n")
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "solve.csv").read_text().count("\n") == 3


class TestSeedContract:
    @pytest.mark.parametrize("argv", [
        ["solve", "--steps", "8", "--n-samples", "4"],
        ["vp-run", "--steps", "8", "--n-points", "4"],
    ])
    def test_negative_seed_rejected(self, tmp_path, argv):
        with pytest.raises(DomainError, match="seed -5"):
            cli.main(argv + ["--seed", "-5", "--out", str(tmp_path)])
