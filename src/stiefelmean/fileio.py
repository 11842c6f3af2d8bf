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
round-trips float64 exactly.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .errors import FileFormatError, ValidationError
from .manifold import Dims, SampleSet, StiefelPoint, _check_real, _check_type


def write_sample_set(path, sample_set: SampleSet, include_center: bool = True) -> None:
    """Write a sample set; the center block is included when known unless
    ``include_center`` is false."""
    with_center = include_center and sample_set.center is not None
    dims = sample_set.dims
    header = f"{dims.p} {dims.n} {len(sample_set)} {sample_set.sigma!r} {sample_set.seed}"
    if with_center:
        header += " C"
    blocks = []
    if with_center:
        blocks.append(sample_set.center.X)
    blocks.extend(sample_set.stack)
    # one %-operation per block; "%.16e" % v is the same text as f"{v:.16e}"
    block_format = (" ".join(["%.16e"] * dims.n) + "\n") * dims.p
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(block_format % tuple(b.ravel().tolist()) for b in blocks))


def read_matrix_blocks(path) -> Tuple[dict, np.ndarray]:
    """Parse a sample-set file without enforcing manifold invariants.

    Returns the header as a dict (p, n, count, sigma, seed, has_center) and
    the raw matrix blocks as one (blocks, p, n) array (center first when
    present). Format problems raise ``FileFormatError`` with the offending
    line (and column for bad values).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError("missing header line", line=1)
    tokens = lines[0].split()
    if len(tokens) not in (5, 6):
        raise FileFormatError(
            f"header needs 'p n N sigma seed [C]', got {len(tokens)} tokens", line=1
        )
    try:
        p, n, count = int(tokens[0]), int(tokens[1]), int(tokens[2])
        sigma = float(tokens[3])
        seed = int(tokens[4])
    except ValueError as exc:
        raise FileFormatError(f"bad header value: {exc}", line=1) from exc
    try:
        _check_real(sigma, "sigma")
    except ValidationError:
        msg = f"sigma must be finite and nonnegative, got '{tokens[3]}'"
        raise FileFormatError(msg, line=1) from None
    if seed < 0:
        raise FileFormatError(f"seed must be nonnegative, got '{tokens[4]}'", line=1)
    has_center = False
    if len(tokens) == 6:
        if tokens[5] != "C":
            raise FileFormatError(f"unexpected header token '{tokens[5]}'", line=1)
        has_center = True
    if p < 1 or n < 1 or n > p:
        raise FileFormatError(f"invalid dimensions p={p} n={n}", line=1)
    if count < 1:
        raise FileFormatError(f"invalid sample count {count}", line=1)

    expected = count + (1 if has_center else 0)
    cells: List[str] = []
    row_lines: List[int] = []  # 1-based line number of each value row
    i = 1
    total = len(lines)
    try:
        for b in range(expected):
            while i < total and not lines[i].strip():
                i += 1
            if i >= total:
                raise FileFormatError(
                    f"expected {expected} blocks, found {b}", line=total
                )
            for r in range(p):
                if i >= total or not lines[i].strip():
                    raise FileFormatError(
                        f"block {b}: expected {p} rows, got {r}", line=i
                    )
                parts = lines[i].split()
                if len(parts) != n:
                    raise FileFormatError(
                        f"expected {n} values, got {len(parts)}", line=i + 1
                    )
                cells.extend(parts)
                row_lines.append(i + 1)
                i += 1
            if i < total and lines[i].strip():
                raise FileFormatError("expected a blank line between blocks", line=i + 1)
        while i < total:
            if lines[i].strip():
                raise FileFormatError("trailing content after the last block", line=i + 1)
            i += 1
    except FileFormatError:
        # a bad value in an earlier row comes first in the file
        _check_values(cells, row_lines, n)
        raise
    values = _check_values(cells, row_lines, n)
    header = {
        "p": p, "n": n, "count": count, "sigma": sigma, "seed": seed,
        "has_center": has_center,
    }
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
    orthonormality invariant (a ``ValidationError`` names the first that does not)."""
    header, blocks = read_matrix_blocks(path)
    dims = Dims(header["p"], header["n"])
    center = None
    if header["has_center"]:
        center = StiefelPoint(blocks[0])
        blocks = blocks[1:]
    return SampleSet(
        dims=dims, center=center, sigma=header["sigma"], seed=header["seed"], stack=blocks
    )


def write_point(path, point: StiefelPoint, sigma: float = 0.0, seed: int = 0) -> None:
    """Write a single point in the sample-set format (N = 1, no center block).
    ``sigma`` and ``seed`` are carried as provenance metadata."""
    _check_type(point, StiefelPoint, "point")
    ss = SampleSet(dims=point.dims, center=None, sigma=sigma, seed=seed, stack=(point,))
    write_sample_set(path, ss, include_center=False)
