"""The CSV artifact writer: byte-identical to one ``%.17g`` per cell."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import cli, scenarios
from iqpe.statekit import ContractViolation

BLOCK = cli._CSV_BLOCK_ROWS

# Zero rows, one row, and row counts just below, at and above one and two blocks.
ROW_COUNTS = [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]

# Signed zeros, the smallest subnormal, the smallest normal and the largest values.
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
            1.7976931348623157e308, -1.7976931348623157e308]


def oracle_csv(header, columns) -> bytes:
    """The per-cell f-string writer that ``_write_csv`` replaced: the reference bytes."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def written_csv(header, columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = cli._OutDir(Path(tmp))
        cli._write_csv(out, "t.csv", header, columns)
        return (out.path / "t.csv").read_bytes()


def mixed_table(rng, n_cols, n_rows, pool, share_repeated):
    """Columns whose cells come from ``pool`` (repeats) or from random finite bits."""
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=(n_cols, n_rows),
                        endpoint=True).view(np.float64)
    bits[~np.isfinite(bits)] = 0.0
    repeated = rng.choice(np.asarray(pool, dtype=float), size=(n_cols, n_rows))
    return np.where(rng.random((n_cols, n_rows)) < share_repeated, repeated, bits)


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_write_csv_matches_oracle_at_block_edges(n_rows):
    table = mixed_table(np.random.default_rng(n_rows), 3, n_rows, SPECIALS, 0.5)
    assert written_csv("a,b,c", tuple(table)) == oracle_csv("a,b,c", tuple(table))


def test_write_csv_keeps_signed_zeros_apart():
    data = written_csv("x,y", ((0.0, -0.0, 0.0), (-0.0, -0.0, 0.0)))
    assert data == b"x,y\n0,-0\n-0,-0\n0,0\n"


@st.composite
def csv_columns(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    pool = SPECIALS + draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = mixed_table(rng, n_cols, n_rows, pool, draw(st.sampled_from([0.0, 0.5, 1.0])))
    if draw(st.booleans()):
        # qfi-map passes tuples of Python floats
        return tuple(tuple(column.tolist()) for column in table)
    return tuple(table)


@settings(max_examples=60, deadline=None)
@given(columns=csv_columns())
def test_write_csv_matches_oracle(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    assert written_csv(header, columns) == oracle_csv(header, columns)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_refuses_non_finite(tmp_path, bad):
    column = np.zeros(BLOCK + 1)
    column[BLOCK] = bad
    out = cli._OutDir(tmp_path)
    with pytest.raises(ContractViolation, match="record_l7.csv"):
        cli._write_csv(out, "record_l7.csv", "t,x", (np.zeros(BLOCK + 1), column))
    assert list(tmp_path.iterdir()) == []
    assert out.checksums == {}


def test_write_csv_holds_the_file_once(tmp_path):
    # a rotation map's 2 * 182^2 = 66,248 rows of 4 columns: the growing
    # buffer is the one copy of the file, with no list of block chunks,
    # joined copy or float copy of the columns next to it
    records = scenarios.rotation_qfi_map(300, 182)
    names = records.dtype.names
    columns = [records[name] for name in names]
    tracemalloc.start()
    try:
        cli._write_csv(cli._OutDir(tmp_path), "map.csv", ",".join(names), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "map.csv").stat().st_size
    assert peak <= 1.25 * size + 2**20, (peak, size)
