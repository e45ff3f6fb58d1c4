import numpy as np
import pytest

from projcorr import ParameterError
from projcorr.tensorio import read_nit1, read_pgm, write_nit1, write_pgm


class TestNit1:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (1, 1, 1, 5)])
    def test_roundtrip_shapes(self, tmp_path, rng, shape):
        data = rng.standard_normal(shape)
        path = tmp_path / "t.nit1"
        write_nit1(path, data)
        back = read_nit1(path)
        assert back.shape == shape
        assert np.array_equal(back, data.astype(np.float32).astype(np.float64))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.nit1"
        write_nit1(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"NIT1"
        assert raw[4] == 1          # version
        assert raw[5] == 2          # ndim
        assert raw[6:8] == b"\x00\x00"
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 3
        assert len(raw) == 16 + 4 * 6

    def test_write_is_deterministic(self, tmp_path, rng):
        data = rng.standard_normal((4, 4))
        write_nit1(tmp_path / "a.nit1", data)
        write_nit1(tmp_path / "b.nit1", data)
        assert (tmp_path / "a.nit1").read_bytes() == (tmp_path / "b.nit1").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nit1"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(ParameterError):
            read_nit1(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.nit1"
        path.write_bytes(b"NIT1" + bytes([9, 1, 0, 0]) + (4).to_bytes(4, "little") + bytes(16))
        with pytest.raises(ParameterError):
            read_nit1(path)

    def test_nonzero_padding(self, tmp_path):
        path = tmp_path / "bad.nit1"
        path.write_bytes(b"NIT1" + bytes([1, 1, 7, 0]) + (1).to_bytes(4, "little") + bytes(4))
        with pytest.raises(ParameterError):
            read_nit1(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.nit1"
        write_nit1(path, [0.5, bad, 1.0])
        with pytest.raises(ParameterError, match="non-finite"):
            read_nit1(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.nit1"
        path.write_bytes(b"NIT1" + bytes([1, 1, 0, 0]) + (4).to_bytes(4, "little") + bytes(8))
        with pytest.raises(ParameterError):
            read_nit1(path)


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.random((6, 9))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (6, 9)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12
        assert back.min() >= 0.0 and back.max() <= 1.0

    def test_comment_lines_skipped(self, tmp_path):
        payload = bytes(range(6))
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 0] == 0.0
        assert img[1, 2] == pytest.approx(5 / 255)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(ParameterError):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ParameterError):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ParameterError):
            read_pgm(path)
