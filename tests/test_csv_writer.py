"""The CSV artifact writer: byte-identical to one ``%.17g`` per cell."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import cli, emulator, scenarios
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


def written_twice(header, columns) -> list:
    """The file's bytes from two writes through one ``_OutDir``: the second
    reads its one-varying-column blocks from the store the first filled."""
    with tempfile.TemporaryDirectory() as tmp:
        out = cli._OutDir(Path(tmp))
        files = []
        for name in ("a.csv", "b.csv"):
            cli._write_csv(out, name, header, columns)
            files.append((out.path / name).read_bytes())
        return files


def theta_runs(resolution, n_thetas):
    """A rotation map's columns, theta-major, for its first ``n_thetas`` thetas:
    ``2 * resolution`` rows per theta, and only phi varies within a theta."""
    thetas, phis = scenarios._grid_axes(resolution)
    thetas = np.repeat(thetas[:n_thetas], phis.size)
    sin_sq = np.sin(thetas) ** 2
    return thetas, np.tile(phis, n_thetas), 1200.0 * sin_sq, 360000.0 - 358800.0 * sin_sq


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


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_write_csv_folds_constants_by_their_bits(n_rows):
    # 0.0 and -0.0 compare equal: a column constant by value but mixing the
    # two is not constant by bits, and must keep each cell's sign
    mixed = np.where(np.arange(n_rows) % 3 == 1, -0.0, 0.0)
    t = np.arange(n_rows) / 60e3
    for columns in [(np.zeros(n_rows), np.full(n_rows, -0.0), t),
                    (mixed, np.full(n_rows, -0.0), np.full(n_rows, 1e-300)),
                    (np.full(n_rows, -0.0), mixed, t)]:
        assert written_twice("a,b,c", columns) == [oracle_csv("a,b,c", columns)] * 2


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_write_csv_one_varying_column(n_rows, position):
    # the varying column first, in the middle and last, between constants
    varying = mixed_table(np.random.default_rng(n_rows), 1, n_rows, SPECIALS, 0.5)[0]
    columns = [np.full(n_rows, -1.5), np.full(n_rows, 2.5e-8)]
    columns.insert(position, varying)
    assert written_twice("a,b,c", columns) == [oracle_csv("a,b,c", columns)] * 2
    assert written_twice("a", (varying,)) == [oracle_csv("a", (varying,))] * 2


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_write_csv_columns_constant_over_part_of_a_block(n_rows):
    # runs of 100 equal values: constant over some blocks' head or tail only,
    # so a block may have one varying column, or two, or none
    steps = np.arange(n_rows) // 100
    columns = (steps * 0.1, np.where(steps % 2 == 1, np.arange(n_rows) * 1e-3, 7.0),
               np.full(n_rows, 3.0))
    assert written_twice("a,b,c", columns) == [oracle_csv("a,b,c", columns)] * 2


def test_write_csv_files_sharing_a_column_through_one_out_dir(tmp_path):
    # a fit run's pattern: every file holds the same t beside other columns
    t = np.arange(3 * BLOCK + 17) / 60e3
    n = t.size
    tables = {"record.csv": ("t,ch1,ch2", (t, np.full(n, 0.49), np.full(n, 0.51))),
              "demod.csv": ("t,phi,alpha", (t, np.full(n, -0.02), np.full(n, -1e-4))),
              "last.csv": ("x,t", (np.full(n, -0.0), t)),
              "alone.csv": ("t", (t,)),
              "noisy.csv": ("t,x", (t, np.sin(t)))}
    out = cli._OutDir(tmp_path)
    for name, (header, columns) in tables.items():
        cli._write_csv(out, name, header, columns)
    # t's four blocks, formatted once and stored; noisy.csv has two varying columns
    assert len(out.csv_texts) == 4
    for name, (header, columns) in tables.items():
        assert (tmp_path / name).read_bytes() == oracle_csv(header, columns), name


@pytest.mark.parametrize("resolution, n_thetas", [(182, 182), (1000, 40), (1024, 3)])
def test_write_csv_theta_runs_across_blocks(resolution, n_thetas):
    # res 182 and 1000 put theta changes inside blocks, at offsets that cycle
    # over the thetas; res 1024 has whole blocks per theta
    columns = theta_runs(resolution, n_thetas)
    header = ",".join(scenarios.SPHERE_MAP_DTYPE.names)
    assert written_twice(header, columns) == [oracle_csv(header, columns)] * 2


def test_write_csv_store_holds_at_most_its_cap(tmp_path):
    # more one-varying-column blocks of distinct bits than the store keeps
    t = np.arange((cli._CSV_STORED_BLOCKS + 5) * BLOCK + 3) / 60e3
    columns = (t, np.full(t.size, 0.5))
    out = cli._OutDir(tmp_path)
    for name in ("a.csv", "b.csv"):
        cli._write_csv(out, name, "t,x", columns)
        assert (tmp_path / name).read_bytes() == oracle_csv("t,x", columns)
    assert len(out.csv_texts) == cli._CSV_STORED_BLOCKS


@st.composite
def csv_columns(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    pool = SPECIALS + draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = mixed_table(rng, n_cols, n_rows, pool, draw(st.sampled_from([0.0, 0.5, 1.0])))
    for k in draw(st.lists(st.integers(0, n_cols - 1), max_size=n_cols)):
        # a column constant from a row on: over whole blocks or a block's tail
        table[k, draw(st.integers(0, n_rows)):] = rng.choice(pool)
    if draw(st.booleans()):
        # qfi-map passes tuples of Python floats
        return tuple(tuple(column.tolist()) for column in table)
    return tuple(table)


@settings(max_examples=60, deadline=None)
@given(columns=csv_columns())
def test_write_csv_matches_oracle(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    assert written_twice(header, columns) == [oracle_csv(header, columns)] * 2


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


def test_fit_run_csvs_hold_at_most_the_largest_file(tmp_path):
    # the shipped fit config's 12 CSVs through one _OutDir: the store of t's
    # texts and one file's buffer at a time, nothing that grows per file
    result = emulator.run_fit_pipeline(emulator.parse_run_config("configs/static_fit_six_l.cfg"))
    out = cli._OutDir(tmp_path)
    tracemalloc.start()
    try:
        for run in result.runs:
            cli._experiment_artifacts(out, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.checksums) == 12
    largest = max(path.stat().st_size for path in tmp_path.iterdir())
    assert peak <= 1.25 * largest + 2**20, (peak, largest)
