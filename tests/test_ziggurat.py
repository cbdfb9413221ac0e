"""Normal sampler: numpy's ziggurat on protocol's Philox, held to numpy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import ziggurat
from iqpe.emulator import MAX_RUN_SAMPLES
from iqpe.protocol import trial_rng

STREAMS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**64 - 1] + [2**32 + k for k in range(-3, 4)]),
)


def ziggurat_walk(seed, stream, n):
    """The first n draws of ``trial_rng(seed, stream).standard_normal``, one
    word at a time over numpy's raw Philox words as numpy's C sampler takes
    them, and how many tries each slow path took."""
    ki, wi, fi = (table.tolist() for table in ziggurat._tables())
    words = iter(np.random.Philox(key=[seed, stream]).random_raw(2 * n + 64).tolist())
    draws, paths = [], {"wedge accepted": 0, "wedge refused": 0, "tail": 0}
    while len(draws) < n:
        word = next(words)
        i, rabs = word & 0xFF, word >> 9 & (2**52 - 1)
        x = -(rabs * wi[i]) if word >> 8 & 1 else rabs * wi[i]
        if rabs < ki[i]:
            draws.append(x)
        elif i == 0:
            paths["tail"] += 1
            while True:
                xx = -ziggurat._INV_R * math.log1p(-(next(words) >> 11) * 2.0**-53)
                yy = -math.log1p(-(next(words) >> 11) * 2.0**-53)
                if yy + yy > xx * xx:
                    tail = ziggurat._R + xx
                    draws.append(-tail if rabs >> 8 & 1 else tail)
                    break
        elif ((fi[i - 1] - fi[i]) * ((next(words) >> 11) * 2.0**-53) + fi[i]
              < math.exp(-0.5 * x * x)):
            paths["wedge accepted"] += 1
            draws.append(x)
        else:
            paths["wedge refused"] += 1
    return np.array(draws), paths


_BLOCK_DRAWS = 4 * ziggurat._BLOCK
NORMAL_COUNTS = st.one_of(
    st.integers(0, 3 * _BLOCK_DRAWS),
    st.sampled_from([0, 1, 2, 3, 4, 5]
                    + [k * _BLOCK_DRAWS + d for k in (1, 2) for d in (-1, 0, 1)]),
)


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1])),
       stream=STREAMS, n=NORMAL_COUNTS)
def test_normal_kernel_draws_what_numpy_draws(seed, stream, n):
    # any seed and stream, and counts around the kernel's blocks of words
    expected = trial_rng(seed, stream).standard_normal(n)
    assert ziggurat.standard_normals(seed, stream, n).tobytes() == expected.tobytes()


def test_normal_kernel_takes_every_path_of_numpy_sampler():
    # 10^5 draws take the wedge both ways and the tail, and the word-by-word
    # walk over numpy's raw words draws what numpy and the kernel draw
    n = 10**5
    walked, paths = ziggurat_walk(20260810, 1, n)
    assert min(paths.values()) > 0, paths
    expected = trial_rng(20260810, 1).standard_normal(n)
    assert walked.tobytes() == expected.tobytes()
    assert ziggurat.standard_normals(20260810, 1, n).tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [1, 3])
def test_normal_kernel_carries_a_try_across_blocks(monkeypatch, block):
    # with blocks of a few buffers, wedge and tail tries keep meeting the end
    # of a block and must carry their words into the next one
    monkeypatch.setattr(ziggurat, "_BLOCK", block)
    expected = trial_rng(3, 2**32 + 1).standard_normal(20_000)
    assert ziggurat.standard_normals(3, 2**32 + 1, 20_000).tobytes() == expected.tobytes()


# Draws numpy 2.4's Generator.standard_normal makes.  NEP 19 does not freeze
# Generator streams, so these pin the kernel, and with it every noisy
# experiment's artifacts, should a numpy release change its sampler.
GOLDEN_NORMALS = [
    # seed, stream, index, draw
    (0, 0, 0, 0.15929546600623282),
    (0, 0, 4467, 4.083012551110254),  # a tail draw
    (1, 7, 4097, -0.8932482019539468),
    (2**64 - 1, 2**64 - 1, 253, 4.07707613778086),  # a tail draw
    (21, 2**32, 1285, -3.6987720464462956),  # a negative tail draw
    (20260810, 2, 0, -0.42124912766021755),
]


@pytest.mark.parametrize("seed, stream, index, draw", GOLDEN_NORMALS)
def test_normal_kernel_golden_draws(seed, stream, index, draw):
    assert ziggurat.standard_normals(seed, stream, index + 1)[index] == draw


def test_normal_kernel_memory_grows_with_the_block_not_the_draws():
    # past the n draws it returns, the kernel holds a block of words and its
    # temporaries (about 11 arrays of a block's words at the top of a run)
    n = MAX_RUN_SAMPLES
    tracemalloc.start()
    try:
        ziggurat.standard_normals(5, 0, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 16 * 8 * _BLOCK_DRAWS + 2**19
