import numpy as np
import pytest

from fmprune import PPMError, ShapeError, Tensor, load_input, load_ppm, to_input_tensor
from conftest import write_ppm, write_raw_tensor
from oracles import bilinear_resize_formula


def ppm_bytes(width, height, pixels, header=b"P6"):
    return header + b"\n%d %d\n255\n" % (width, height) + bytes(pixels)


@pytest.fixture
def decode(tmp_path):
    """load_ppm of a byte string, written to a file first."""
    path = tmp_path / "decode.ppm"

    def decode(data):
        path.write_bytes(data)
        return load_ppm(path)
    return decode


def test_single_white_pixel(decode):
    pixels = decode(ppm_bytes(1, 1, [255, 255, 255]))
    assert pixels.shape == (1, 1, 3) and pixels.dtype == np.uint8
    assert pixels.ravel().tolist() == [255, 255, 255]


def test_comment_lines_in_header(decode):
    data = b"P6\n# made by hand\n2 1\n# another\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    pixels = decode(data)
    assert pixels.shape == (1, 2, 3)
    assert pixels[0, 1].tolist() == [4, 5, 6]


@pytest.mark.parametrize("header", [b"P6\r# a comment\r2 1\r255\r", b"P6 #c\r2 1 255\n"])
def test_comment_ends_at_carriage_return(decode, header):
    """Netpbm ends a header comment at CR as well as at LF."""
    pixels = decode(header + bytes([1, 2, 3, 4, 5, 6]))
    assert pixels.shape == (1, 2, 3)
    assert pixels[0, 1].tolist() == [4, 5, 6]


def test_comment_to_the_end_of_the_data_raises(decode):
    with pytest.raises(PPMError, match="expected an integer"):
        decode(b"P6\n2 1 # no line end follows")


def test_header_errors(decode):
    with pytest.raises(PPMError):
        decode(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PPMError):
        decode(ppm_bytes(1, 1, [0, 0, 0]).replace(b"255", b"65535"))
    with pytest.raises(PPMError):
        decode(b"P6\n1 x\n255\n" + bytes(3))
    with pytest.raises(PPMError, match="magic not followed by whitespace"):
        decode(b"P62 1 255\n" + bytes(6))
    with pytest.raises(PPMError, match="magic not followed by whitespace"):
        decode(b"P6")


def test_truncated_body(decode):
    with pytest.raises(PPMError, match="truncated pixel data: need 12 bytes, got 11"):
        decode(ppm_bytes(2, 2, [0] * 11))


def test_round_trip(tmp_path):
    pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    path = tmp_path / "img.ppm"
    write_ppm(pixels, path)
    assert np.array_equal(load_ppm(path), pixels)


def test_identity_resize_scales_only():
    pixels = np.array([[[255, 0, 0], [0, 255, 0]],
                       [[0, 0, 255], [255, 255, 255]]], dtype=np.uint8)
    t = to_input_tensor(pixels, (3, 2, 2))
    assert t.shape == (3, 2, 2)
    assert np.array_equal(t.data, pixels.astype(np.float32).transpose(2, 0, 1) / 255.0)


def test_upscale_single_pixel_gives_constant_planes():
    t = to_input_tensor(np.array([[[10, 20, 30]]], dtype=np.uint8), (3, 4, 4))
    for c, v in enumerate((10, 20, 30)):
        assert np.allclose(t.data[c], v / 255.0)


def test_downscale_matches_direct_bilinear_oracle():
    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    t = to_input_tensor(pixels, (3, 2, 2))

    # scalar half-pixel-center formula, evaluated independently
    src = pixels.astype(np.float64)
    for oy in range(2):
        for ox in range(2):
            sy = min(max((oy + 0.5) * 2 - 0.5, 0.0), 3.0)
            sx = min(max((ox + 0.5) * 2 - 0.5, 0.0), 3.0)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, 3), min(x0 + 1, 3)
            fy, fx = sy - y0, sx - x0
            for c in range(3):
                expected = ((1 - fy) * ((1 - fx) * src[y0, x0, c] + fx * src[y0, x1, c])
                            + fy * ((1 - fx) * src[y1, x0, c] + fx * src[y1, x1, c])) / 255.0
                assert abs(float(t.data[c, oy, ox]) - expected) < 1e-6


def test_output_range_and_shape(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    t = to_input_tensor(pixels, (3, 9, 4))
    assert t.shape == (3, 9, 4)
    assert float(t.data.min()) >= 0.0
    assert float(t.data.max()) <= 1.0


def test_non_rgb_target_rejected():
    with pytest.raises(ShapeError):
        to_input_tensor(np.zeros((1, 1, 3), np.uint8), (1, 2, 2))


@pytest.mark.parametrize("pixels", [
    np.zeros((2, 2, 3), np.float32),   # not uint8
    np.zeros((2, 2, 4), np.uint8),     # not three samples per pixel
    np.zeros((2, 6), np.uint8),        # not (H, W, 3)
    np.zeros((0, 4, 3), np.uint8),     # no rows
])
def test_pixels_that_are_not_hw3_uint8_rejected(pixels):
    with pytest.raises(ShapeError, match=r"\(H, W, 3\) uint8"):
        to_input_tensor(pixels, (3, 2, 2))


def test_load_input_dispatches_by_extension(tmp_path):
    ppm = tmp_path / "img.ppm"
    write_ppm(np.full((1, 1, 3), 255, np.uint8), ppm)
    t = load_input(ppm, (3, 2, 2))
    assert np.allclose(t.data, 1.0)

    raw = tmp_path / "fixture.bin"
    write_raw_tensor(Tensor(np.full((2, 3, 3), 0.5, np.float32)), raw)
    t = load_input(raw, (2, 3, 3))
    assert np.allclose(t.data, 0.5)
    with pytest.raises(ShapeError):
        load_input(raw, (2, 4, 4))


def test_decoded_pixels_are_a_writable_copy(decode):
    pixels = decode(ppm_bytes(2, 1, range(6)))
    assert pixels.flags.writeable and pixels.flags.owndata
    pixels[0, 0, 0] = 9


@pytest.mark.parametrize("size,target", [
    ((224, 224), (224, 224)),   # both axes exact, every index the identity
    ((224, 300), (224, 224)),   # rows exact, columns blended
    ((300, 224), (224, 224)),   # columns exact, rows blended
    ((12, 15), (4, 5)),         # both exact at a third of the size: a gather, no blend
    ((256, 256), (227, 227)),
    ((60, 80), (17, 23)),
    ((1, 1), (4, 4)),
])
def test_resize_is_bit_identical_to_the_blend_formula(size, target):
    pixels = np.random.default_rng(list(size + target)).integers(
        0, 256, size=size + (3,), dtype=np.uint8)
    t = to_input_tensor(pixels, (3,) + target)
    expected = bilinear_resize_formula(pixels, *target)
    assert t.data.flags.c_contiguous
    assert np.array_equal(t.data.view(np.uint32), expected.view(np.uint32))
