"""Text file format for sample sets and single Stiefel points.

Layout (UTF-8):

    p n N sigma seed [C]
    <block>
    <blank line>
    <block>
    ...

The header carries the dimensions, the number of stored samples N, the
spread sigma and the generation seed. When the literal token ``C`` is
appended, the first block is the center of the distribution and N further
blocks follow; otherwise exactly N blocks follow. Each block is p lines of
n space-separated decimal values written with 17 significant digits, which
round-trips float64 exactly. Between blocks the writer puts one empty line
and the reader accepts one or more blank or whitespace-only lines, as it
does before the first block and after the last. A layout error names one
line: the file's last line for a missing block, the last row of a short
block, row p + 1 of a long one, the first line of trailing content, and the
row itself for a wrong value count. A bad value also names its column and
is reported first when it comes before a layout error.

A file in the writer's canonical layout is read in one pass: every byte is
a digit, one of ``+ - . e E``, a space or ``\n`` (the header line may also
hold its ``C``), the file ends with ``\n``, each non-blank line holds n
values between single spaces, and the non-blank lines form exactly the
header's runs of p lines. A few vectorized NumPy checks establish that and
one ``np.fromstring`` call converts every value, so reading holds the
file's bytes, the value array and one byte-sized mask, and makes no object
per line or value. Every other file, malformed or valid (tabs, CRLF line
ends, repeated spaces, whitespace-only lines, ``1_0``, non-ASCII
whitespace), goes to a walker over its lines, which gives the same header
and bits for every file both accept and is the source of every error.
"""

from __future__ import annotations

import warnings
from itertools import chain, groupby
from typing import List, Tuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .manifold import Dims, SampleSet, StiefelPoint, _check_int, _check_real, _check_type


def write_sample_set(path, sample_set: SampleSet, include_center: bool = True) -> None:
    """Write a sample set; the center block is included when known unless
    ``include_center`` is false. The text is formatted and written one block
    at a time, so writing holds no more than one block's text."""
    _check_type(sample_set, SampleSet, "sample_set")
    with_center = include_center and sample_set.center is not None
    dims = sample_set.dims
    header = f"{dims.p} {dims.n} {len(sample_set)} {sample_set.sigma!r} {sample_set.seed}"
    blocks = sample_set.stack
    if with_center:
        header += " C"
        blocks = chain([sample_set.center.X], blocks)
    # one %-operation per block; "%.16e" % v is the same text as f"{v:.16e}"
    block_format = (" ".join(["%.16e"] * dims.n) + "\n") * dims.p
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for b, block in enumerate(blocks):
            fh.write(("\n" if b else "") + block_format % tuple(block.ravel().tolist()))


def read_matrix_blocks(path) -> Tuple[dict, np.ndarray]:
    """Parse a sample-set file without enforcing manifold invariants.

    Returns the header as a dict (p, n, count, sigma, seed, has_center) and
    the raw matrix blocks as one (blocks, p, n) array (center first when
    present). Format problems raise ``FileFormatError`` with the offending
    line (and column for bad values); a header value that breaks its rule
    in ``manifold`` is an error at line 1 with the rule's message, and a
    byte that is not UTF-8 text is an error at its line.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        parsed = _read_canonical(head, fh.read())
    return parsed if parsed is not None else _read_lines(path)


# the bytes of a value token in the one-pass path, each one above b" "
_VALUE_BYTES = b"0123456789+-.eE"


def _read_canonical(head: bytes, body: bytes):
    """The one-pass reading of a file in the canonical layout, or None.

    None declines the file: a byte outside the alphabet, a line that is not
    exactly n tokens between single spaces, non-blank lines in other than
    one run of p lines per block, a number that does not parse or is not
    finite. The
    vectorized checks mean that every value token is parsed whole by the
    same conversion ``float`` uses, so an accepted file gives the walker's
    header and bits.
    """
    if (head.translate(None, _VALUE_BYTES + b" C\n") or body.translate(None, _VALUE_BYTES + b" \n")
            or not body.endswith(b"\n")):
        return None
    try:
        header = _parse_header(head.decode("ascii"))
    except FileFormatError:
        return None
    p, n = header["p"], header["n"]
    expected = header["count"] + header["has_center"]
    raw = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    spaces = np.flatnonzero(raw == ord(" "))
    # raw[-1] is a newline, so raw[spaces + 1] is in bounds and a space at
    # 0 sees that newline at raw[-1]: no leading, trailing or doubled space
    if (raw[spaces - 1] <= ord(" ")).any() or (raw[spaces + 1] <= ord(" ")).any():
        return None
    non_blank = np.diff(ends, prepend=-1) > 1
    per_line = np.bincount(np.searchsorted(ends, spaces), minlength=len(ends))
    if (per_line[non_blank] != n - 1).any():
        return None
    edges = np.diff(non_blank.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if len(starts) != expected or (stops - starts != p).any():
        return None
    # a token that does not parse whole stops the conversion: NumPy 2 raises
    # ValueError, NumPy 1 warns and returns the values before the stop
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(body, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != expected * p * n or not np.isfinite(values).all():
        return None
    return header, values.reshape(expected, p, n)


def _parse_header(line: str) -> dict:
    """The header dict of a file's first line; ``FileFormatError`` at line 1."""
    if not line.strip():
        raise FileFormatError("missing header line", line=1)
    tokens = line.split()
    if len(tokens) not in (5, 6):
        raise FileFormatError(
            f"header needs 'p n N sigma seed [C]', got {len(tokens)} tokens", line=1
        )
    try:
        p, n, count = int(tokens[0]), int(tokens[1]), int(tokens[2])
        sigma, seed = float(tokens[3]), int(tokens[4])
    except ValueError as exc:
        raise FileFormatError(f"bad header value: {exc}", line=1) from exc
    try:
        dims = Dims(p, n)
        count = _check_int(count, "N", 1)
        sigma = _check_real(sigma, "sigma")
        seed = _check_int(seed, "seed")
    except ValidationError as exc:
        raise FileFormatError(str(exc), line=1) from None
    has_center = len(tokens) == 6
    if has_center and tokens[5] != "C":
        raise FileFormatError(f"unexpected header token '{tokens[5]}'", line=1)
    return {
        "p": dims.p, "n": dims.n, "count": count, "sigma": sigma, "seed": seed,
        "has_center": has_center,
    }


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; an undecodable byte is a ``FileFormatError``
    at its line, counted as ``str.splitlines`` counts lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise FileFormatError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8 text", line=line
        ) from None


def _read_lines(path) -> Tuple[dict, np.ndarray]:
    """``read_matrix_blocks`` one line at a time: the reader of every file
    the one-pass path declines and the source of every error message."""
    with open(path, "rb") as fh:
        lines = _decode(fh.read()).splitlines()
    header = _parse_header(lines[0] if lines else "")
    p, n = header["p"], header["n"]
    expected = header["count"] + header["has_center"]
    cells: List[str] = []
    row_lines: List[int] = []  # 1-based line number of each value row

    def fail(message, line):
        # a bad value in an earlier row comes first in the file
        _check_values(cells, row_lines, n)
        raise FileFormatError(message, line=line)

    # runs of indexes into lines, blank or not; line i + 1 is lines[i]
    blank = [not text.strip() for text in lines]
    runs = groupby(range(1, len(lines)), key=blank.__getitem__)
    for b, rows in enumerate(list(run) for is_blank, run in runs if not is_blank):
        if b == expected:
            fail("trailing content after the last block", rows[0] + 1)
        for i in rows[:p]:
            parts = lines[i].split()
            if len(parts) != n:
                fail(f"expected {n} values, got {len(parts)}", i + 1)
            cells.extend(parts)
            row_lines.append(i + 1)
        if len(rows) > p:
            fail("expected a blank line between blocks", rows[p] + 1)
        if len(rows) < p:
            fail(f"block {b}: expected {p} rows, got {len(rows)}", rows[-1] + 1)
    if len(row_lines) < expected * p:
        fail(f"expected {expected} blocks, found {len(row_lines) // p}", len(lines))
    values = _check_values(cells, row_lines, n)
    return header, values.reshape(expected, p, n)


def _check_values(cells: List[str], row_lines: List[int], n: int) -> np.ndarray:
    """Convert the value tokens in one call. When a token does not parse or
    is not finite, find the first such token and raise ``FileFormatError``
    at its line and column."""
    try:
        values = np.array(cells, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for k, tok in enumerate(cells):
        line, column = row_lines[k // n], k % n + 1
        try:
            val = float(tok)
        except ValueError:
            raise FileFormatError(
                f"could not parse '{tok}' as a number", line=line, column=column
            ) from None
        if not np.isfinite(val):
            raise FileFormatError(f"non-finite value '{tok}'", line=line, column=column)
    raise AssertionError("float() accepted what NumPy rejected")


def read_sample_set(path) -> SampleSet:
    """Read and validate a sample set; every block must satisfy the Stiefel
    orthonormality invariant (a ``ValidationError`` locates the first that does not)."""
    header, blocks = read_matrix_blocks(path)
    dims = Dims(header["p"], header["n"])
    center = None
    if header["has_center"]:
        # a copy: a view would keep every block alive beside the stack's copy
        center = StiefelPoint(blocks[0].copy())
        blocks = blocks[1:]
    return SampleSet(
        dims=dims, center=center, sigma=header["sigma"], seed=header["seed"], stack=blocks
    )


def write_point(path, point: StiefelPoint, sigma: float = 0.0, seed: int = 0) -> None:
    """Write a single point in the sample-set format (N = 1, no center block).
    ``sigma`` and ``seed`` are carried as provenance metadata."""
    dims = _check_type(point, StiefelPoint, "point").dims
    ss = SampleSet(dims=dims, center=None, sigma=sigma, seed=seed, stack=(point,))
    write_sample_set(path, ss, include_center=False)
