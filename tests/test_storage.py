import hashlib

import numpy as np
import pytest

from cutrom import load_matrix, parse_config, save_matrix
from cutrom.errors import ConfigError
from cutrom.storage import RunConfig, load_index_list, read_csv, \
    save_index_list, write_csv


def test_empty_matrix_roundtrip(tmp_path):
    path = tmp_path / "m.romb"
    save_matrix(path, np.zeros((0, 0)))
    out = load_matrix(path)
    assert out.shape == (0, 0)


def test_small_matrix_bitwise_roundtrip(tmp_path):
    m = np.array([[1.0, -2.5], [5e-324, -0.0], [np.pi, 1e300]])
    path = tmp_path / "m.romb"
    save_matrix(path, m)
    out = load_matrix(path)
    assert out.shape == (3, 2)
    assert np.array_equal(m.view(np.uint64), out.view(np.uint64))


def test_large_matrix_checksum_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    m = rng.standard_normal((1000, 1000))
    path = tmp_path / "big.romb"
    save_matrix(path, m)
    out = load_matrix(path)
    assert hashlib.sha256(m.tobytes()).hexdigest() \
        == hashlib.sha256(out.tobytes()).hexdigest()


def test_vector_saved_as_column(tmp_path):
    path = tmp_path / "v.romb"
    save_matrix(path, np.arange(4.0))
    assert load_matrix(path).shape == (4, 1)


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.romb"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ConfigError, match="not a matrix container"):
        load_matrix(path)

    good = tmp_path / "good.romb"
    save_matrix(good, np.ones((4, 4)))
    data = good.read_bytes()
    (tmp_path / "cut.romb").write_bytes(data[:-8])
    with pytest.raises(ConfigError, match="truncated"):
        load_matrix(tmp_path / "cut.romb")

    bad_version = bytearray(data)
    bad_version[4] = 9
    (tmp_path / "vers.romb").write_bytes(bytes(bad_version))
    with pytest.raises(ConfigError, match="version"):
        load_matrix(tmp_path / "vers.romb")


def test_index_list_roundtrip(tmp_path):
    path = tmp_path / "idx.txt"
    save_index_list(path, [5, 0, 123456789])
    assert np.array_equal(load_index_list(path), [5, 0, 123456789])


def test_csv_roundtrip_and_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 0.1), (2, 1e-17)])
    text = path.read_text()
    assert text == "a,b\n1,0.1\n2,1e-17\n"
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert float(rows[1][1]) == 1e-17


def test_config_defaults_and_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
h_target = 0.2
m_train = 12       # trailing comment
seed=7
case = square_poisson
""")
    cfg = parse_config(path)
    assert cfg.h_target == 0.2
    assert cfg.m_train == 12
    assert cfg.seed == 7
    assert cfg.mu_min == 0.4 and cfg.mu_max == 0.5
    assert cfg.alpha == 1e-4


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mystery = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_config_duplicate_and_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)
    path.write_text("h_target = abc\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(path)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.cfg")


def test_config_validation():
    from cutrom.storage import validate_config
    with pytest.raises(ConfigError):
        validate_config(RunConfig(mu_min=0.5, mu_max=0.4))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(m_train=1))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(stages="pod,unknown"))
    for stages in ("rom", "deim"):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(stages=stages))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(eps_pod=1.5))
    with pytest.raises(ConfigError, match="nope"):
        validate_config(RunConfig(case="nope"))
    for mu_min in (-0.1, 0.0):
        with pytest.raises(ConfigError, match="0 < mu_min"):
            validate_config(RunConfig(mu_min=mu_min))
