import numpy as np
import pytest

from stiefelmean import manifold
from stiefelmean.errors import FileFormatError, ValidationError
from stiefelmean.fileio import (
    read_matrix_blocks,
    read_sample_set,
    write_point,
    write_sample_set,
)
from stiefelmean.manifold import (
    Dims,
    SampleSet,
    StiefelPoint,
    generate_center,
    generate_samples,
)


@pytest.fixture
def cloud():
    center = generate_center(Dims(7, 3), 101)
    return generate_samples(center, 0.1, 4, 102)


def test_round_trip_with_center(tmp_path, cloud):
    path = tmp_path / "set.txt"
    write_sample_set(path, cloud)
    loaded = read_sample_set(path)
    assert loaded.dims == cloud.dims
    assert loaded.sigma == cloud.sigma
    assert loaded.seed == cloud.seed
    assert len(loaded) == len(cloud)
    assert np.array_equal(loaded.center.X, cloud.center.X)
    assert np.array_equal(loaded.stack, cloud.stack)  # 17 significant digits round-trip


def test_round_trip_without_center(tmp_path, cloud):
    path = tmp_path / "set.txt"
    write_sample_set(path, cloud, include_center=False)
    header, blocks = read_matrix_blocks(path)
    assert not header["has_center"]
    # the parsed blocks come back as one array
    assert isinstance(blocks, np.ndarray)
    assert np.array_equal(blocks, cloud.stack)
    loaded = read_sample_set(path)
    assert loaded.center is None


def test_write_point_reads_back(tmp_path, cloud):
    path = tmp_path / "point.txt"
    write_point(path, cloud.samples[0], sigma=cloud.sigma, seed=cloud.seed)
    loaded = read_sample_set(path)
    assert len(loaded) == 1
    assert np.array_equal(loaded.stack[0], cloud.stack[0])


def test_numpy_scalar_metadata_round_trips(tmp_path, cloud):
    # the header carries the Python numbers the sample set stores
    path = tmp_path / "point.txt"
    write_point(path, cloud.samples[0], sigma=np.float64(0.1), seed=np.int64(3))
    assert path.read_text().splitlines()[0] == "7 3 1 0.1 3"
    loaded = read_sample_set(path)
    assert (loaded.sigma, loaded.seed) == (0.1, 3)


def test_header_layout(tmp_path, cloud):
    path = tmp_path / "set.txt"
    write_sample_set(path, cloud)
    first = path.read_text().splitlines()[0]
    assert first == f"7 3 4 {cloud.sigma!r} {cloud.seed} C"


def test_missing_header():
    import tempfile, os

    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        with pytest.raises(FileFormatError) as err:
            read_matrix_blocks(path)
        assert err.value.line == 1
    finally:
        os.unlink(path)


def _write(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return path


def test_bad_header_token_count(tmp_path):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, "2 1 1\n1.0\n0.0\n"))
    assert err.value.line == 1


def test_bad_value_reports_line_and_column(tmp_path):
    text = "2 1 1 0.0 7\n1.0\nabc\n"
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, text))
    assert err.value.line == 3
    assert err.value.column == 1


def test_wrong_value_count(tmp_path):
    text = "2 2 1 0.0 7\n1.0 0.0\n0.0\n"
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, text))
    assert err.value.line == 3


def test_missing_block(tmp_path):
    text = "2 1 2 0.0 7\n1.0\n0.0\n"
    with pytest.raises(FileFormatError):
        read_matrix_blocks(_write(tmp_path, text))


def test_non_finite_value(tmp_path):
    text = "2 1 1 0.0 7\ninf\n0.0\n"
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, text))
    assert err.value.line == 2


def test_trailing_garbage(tmp_path):
    text = "2 1 1 0.0 7\n1.0\n0.0\n\nleftover\n"
    with pytest.raises(FileFormatError):
        read_matrix_blocks(_write(tmp_path, text))


@pytest.mark.parametrize("token", ["nan", "inf", "-0.1"])
def test_bad_header_sigma_reported_at_line_1(tmp_path, token):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, f"1 1 1 {token} 7\n1.0\n"))
    assert err.value.line == 1
    assert str(err.value) == f"line 1: sigma must be finite and nonnegative, got {token}"


def test_negative_header_seed_reported_at_line_1(tmp_path):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, "1 1 1 0.1 -5\n1.0\n"))
    assert err.value.line == 1
    assert str(err.value) == "line 1: seed must be a nonnegative integer, got -5"


def test_invalid_dims_in_header(tmp_path):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, "2 3 1 0.0 7\n1.0 0.0 0.0\n0.0 1.0 0.0\n"))
    assert (err.value.line, str(err.value)) == (1, "line 1: need 1 <= n <= p, got (2, 3)")


@pytest.mark.parametrize("header, message", [
    ("0 1 1 0.0 7", "p must be an integer >= 1, got 0"),
    ("2 0 1 0.0 7", "n must be an integer >= 1, got 0"),
    ("2 1 0 0.0 7", "N must be an integer >= 1, got 0"),
    ("2 1 -3 0.0 7", "N must be an integer >= 1, got -3"),
])
def test_header_dims_and_count_follow_their_rules(tmp_path, header, message):
    # the header's values follow the rules Dims and SampleSet check
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, header + "\n1.0 0.0 0.0\n0.0 1.0 0.0\n"))
    assert (err.value.line, str(err.value)) == (1, "line 1: " + message)


def test_unparsed_header_value_keeps_its_message(tmp_path):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, "2 1 1 0.0 7.5\n1.0\n0.0\n"))
    assert str(err.value) == (
        "line 1: bad header value: invalid literal for int() with base 10: '7.5'"
    )


def test_read_sample_set_rejects_off_manifold_block(tmp_path):
    text = "2 1 1 0.0 7\n2.0\n0.0\n"  # column norm 2, defect 3
    with pytest.raises(ValidationError) as err:
        read_sample_set(_write(tmp_path, text))
    assert err.value.defect == pytest.approx(3.0, rel=1e-12)


def test_read_sample_set_names_the_bad_sample(tmp_path):
    text = "2 1 3 0.0 7 C\n1.0\n0.0\n\n0.0\n1.0\n\n1.0\n0.0\n\n0.0\n-2.0\n"
    with pytest.raises(ValidationError) as err:
        read_sample_set(_write(tmp_path, text))
    assert str(err.value).startswith("sample 2: orthonormality defect")
    assert err.value.defect == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("with_center", [True, False], ids=["center", "no-center"])
def test_read_sample_set_validates_the_cloud_once(tmp_path, monkeypatch, cloud, with_center):
    path = tmp_path / "set.txt"
    write_sample_set(path, cloud, include_center=with_center)
    calls = []
    original = manifold.orthonormality_defect

    def counted(x):
        calls.append(x.shape)
        return original(x)

    monkeypatch.setattr(manifold, "orthonormality_defect", counted)
    loaded = read_sample_set(path)
    assert len(loaded) == len(cloud)
    # only the center is checked on its own
    assert len(calls) == (1 if with_center else 0)


def _reference_text(path, sample_set):
    # the writer's format spelled out one value at a time
    lines = [path.read_text().splitlines()[0]]
    blocks = [sample_set.center.X] + list(sample_set.stack)
    for b, block in enumerate(blocks):
        if b:
            lines.append("")
        lines += [" ".join(f"{v:.16e}" for v in row) for row in block]
    return "\n".join(lines) + "\n"


def test_large_file_round_trips_bitwise(tmp_path):
    big = generate_samples(generate_center(Dims(40, 4), 103), 0.05, 1000, 104)
    path = tmp_path / "big.txt"
    write_sample_set(path, big)
    assert path.read_text() == _reference_text(path, big)
    loaded = read_sample_set(path)
    assert np.array_equal(loaded.center.X, big.center.X)
    assert np.array_equal(loaded.stack, big.stack)


def test_writer_text_for_signed_zero_and_subnormal(tmp_path):
    x = np.array([[1.0, -0.0], [5e-324, 1.0], [-5e-324, 0.0]])
    point = StiefelPoint(x)
    sample_set = SampleSet(dims=point.dims, center=point, sigma=0.0, seed=1,
                           stack=(point, point))
    path = tmp_path / "edge.txt"
    write_sample_set(path, sample_set)
    text = path.read_text()
    assert text == _reference_text(path, sample_set)
    assert "-0.0000000000000000e+00" in text and "4.9406564584124654e-324" in text
    _, blocks = read_matrix_blocks(path)
    assert all(b.tobytes() == x.tobytes() for b in blocks)


def _last_block_file(tmp_path, cloud, row, col, token):
    path = tmp_path / "set.txt"
    write_sample_set(path, cloud)
    lines = path.read_text().splitlines()
    p = cloud.dims.p
    line = 2 + len(cloud) * (p + 1) + row  # 1-based: header, then center first
    parts = lines[line - 1].split()
    parts[col] = token
    lines[line - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return path, line


@pytest.mark.parametrize("token, message", [
    ("1.0x", "could not parse '1.0x' as a number"),
    ("nan", "non-finite value 'nan'"),
    ("-inf", "non-finite value '-inf'"),
])
def test_bad_value_in_last_block_reports_line_and_column(tmp_path, cloud, token, message):
    path, line = _last_block_file(tmp_path, cloud, row=5, col=2, token=token)
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(path)
    assert (err.value.line, err.value.column) == (line, 3)
    assert message in str(err.value)


def test_bad_value_reported_before_later_layout_error(tmp_path):
    text = "2 1 2 0.0 7\n1.0\nabc\n\n1.0\n"  # the second block is short
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, text))
    assert (err.value.line, err.value.column) == (3, 1)


@pytest.mark.parametrize("token", ["1_0", "+.5", "0.1_2", "-0", "5e-324", "1e-400"])
def test_edge_tokens_parse_as_float_does(tmp_path, token):
    _, blocks = read_matrix_blocks(_write(tmp_path, f"1 1 1 0.0 7\n{token}\n"))
    assert blocks[0].tobytes() == np.array([[float(token)]]).tobytes()


@pytest.mark.parametrize("token, message", [
    ("nan", "non-finite"), ("-inf", "non-finite"), ("1e400", "non-finite"),
    ("infinity", "non-finite"), ("1d0", "could not parse"), ("0x10", "could not parse"),
])
def test_edge_tokens_rejected_as_float_rejects(tmp_path, token, message):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, f"1 1 1 0.0 7\n{token}\n"))
    assert (err.value.line, err.value.column) == (2, 1)
    assert message in str(err.value)


@pytest.mark.parametrize("text, message, line", [
    ("", "missing header line", 1),
    ("\n2 1 1 0.0 7\n1.0\n0.0\n", "missing header line", 1),
    ("2 1 1\n1.0\n0.0\n", "header needs 'p n N sigma seed [C]', got 3 tokens", 1),
    ("2 1 1 0.0 7 C 9\n1.0\n0.0\n",
     "header needs 'p n N sigma seed [C]', got 7 tokens", 1),
    ("2 1 1 0.0 7 X\n1.0\n0.0\n", "unexpected header token 'X'", 1),
    # a missing block is reported at the file's last line
    ("2 1 1 0.0 7\n", "expected 1 blocks, found 0", 1),
    ("2 1 2 0.0 7\n1.0\n0.0\n", "expected 2 blocks, found 1", 3),
    ("2 1 2 0.0 7 C\n1.0\n0.0\n\n0.0\n1.0\n\n\n", "expected 3 blocks, found 2", 8),
    # a short block is reported at its last row
    ("2 1 2 0.0 7\n1.0\n\n1.0\n0.0\n", "block 0: expected 2 rows, got 1", 2),
    ("2 1 2 0.0 7\n1.0\n0.0\n\n1.0\n", "block 1: expected 2 rows, got 1", 5),
    ("3 1 1 0.0 7\n1.0\n0.0\n\n", "block 0: expected 3 rows, got 2", 3),
    ("2 2 1 0.0 7\n1.0 0.0\n0.0\n", "expected 2 values, got 1", 3),
    ("2 2 1 0.0 7\n1.0 0.0 0.0\n0.0 1.0\n", "expected 2 values, got 3", 2),
    # a long block is reported at its row p + 1, the last block included
    ("2 1 2 0.0 7\n1.0\n0.0\n1.0\n0.0\n", "expected a blank line between blocks", 4),
    ("2 1 1 0.0 7\n1.0\n0.0\nabc def\n", "expected a blank line between blocks", 4),
    # trailing content is reported at its first line
    ("2 1 1 0.0 7\n1.0\n0.0\n\nleftover\n", "trailing content after the last block", 5),
    ("2 1 1 0.0 7\n1.0\n0.0\n\n \n\n1.0\n0.0\n",
     "trailing content after the last block", 7),
])
def test_layout_errors_name_their_message_and_line(tmp_path, text, message, line):
    with pytest.raises(FileFormatError) as err:
        read_matrix_blocks(_write(tmp_path, text))
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}: {message}", line, None
    )


def _relaid(text, before, between, after):
    # the writer's text with other runs of blank lines around its blocks
    head, body = text.split("\n", 1)
    blocks = body.rstrip("\n").split("\n\n")
    return head + "\n" + before + between.join(blocks) + "\n" + after


@pytest.mark.parametrize("before, between, after", [
    ("\n", "\n\n", ""),
    ("", "\n\n\n\n", ""),
    ("", "\n  \n\t\n", ""),
    (" \n\n", "\n \n", "\n\n \t\n"),
    ("", "\n\n", "\n\n\n"),
])
def test_blank_line_runs_read_as_the_writers_layout(tmp_path, cloud, before, between, after):
    path = tmp_path / "set.txt"
    write_sample_set(path, cloud)
    header, blocks = read_matrix_blocks(path)
    relaid = _write(tmp_path, _relaid(path.read_text(), before, between, after))
    assert relaid.read_text() != path.read_text()
    header2, blocks2 = read_matrix_blocks(relaid)
    assert header2 == header
    assert blocks2.tobytes() == blocks.tobytes() and blocks2.shape == blocks.shape
