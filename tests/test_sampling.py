"""Greedy max-cut partition and channel down/upsampling."""

from __future__ import annotations

import numpy as np
import pytest

import graphfb as gf
from graphfb import multires, sampling
from graphfb.errors import InputError
from conftest import all_cut_values, brute_force_max_cut


def test_k3_partition_frozen(k3):
    # Seed = vertex 0, first merge ties at gain 0 and continues: V_L = {0, 1}.
    pat = sampling.greedy_max_cut(gf.laplacian(k3))
    assert pat.keep_low == (0, 1)
    assert pat.keep_high == (2,)
    assert sampling.cut_value(k3, pat) == pytest.approx(2.0, abs=1e-12)


def test_ring4_partition_frozen(ring4):
    # Opposite corners get the full cut of 4.
    pat = sampling.greedy_max_cut(gf.laplacian(ring4))
    assert pat.keep_low == (0, 2)
    assert sampling.cut_value(ring4, pat) == pytest.approx(4.0, abs=1e-12)


def test_path4_partition_frozen(path4):
    # Max-degree seed is vertex 1; vertex 3 joins; cut value 3 of 3 edges.
    pat = sampling.greedy_max_cut(gf.laplacian(path4))
    assert pat.keep_low == (1, 3)
    assert sampling.cut_value(path4, pat) == pytest.approx(3.0, abs=1e-12)


def test_path2_partition(path2):
    pat = sampling.greedy_max_cut(gf.laplacian(path2))
    assert pat.keep_low == (0,)
    assert pat.keep_high == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_max_cut_rejects_non_finite(bad):
    # With L[0, 0] = nan the ring-8 cut used to come back as keep_high=(7,).
    l_matrix = gf.laplacian(gf.generate("ring", 8)).copy()
    l_matrix[0, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        sampling.greedy_max_cut(l_matrix)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 2)])
def test_greedy_max_cut_rejects_non_square(shape):
    with pytest.raises(InputError, match="must be square"):
        sampling.greedy_max_cut(np.ones(shape))


def test_greedy_max_cut_rejects_single_vertex():
    with pytest.raises(InputError, match="n >= 2"):
        sampling.greedy_max_cut(np.zeros((1, 1)))


def _reference_greedy_low_set(l_matrix: np.ndarray) -> tuple[int, ...]:
    """greedy_max_cut's loop as it ran when each step built a new gain array."""
    n = l_matrix.shape[0]
    deg = np.diag(l_matrix)
    v0 = int(np.argmax(deg))
    in_low = np.zeros(n, dtype=bool)
    in_low[v0] = True
    score = float(deg[v0])
    cross = l_matrix[:, v0].copy()
    while in_low.sum() < n - 1:
        gain = np.where(in_low, -np.inf, deg + 2.0 * cross)
        v = int(np.argmax(gain))
        candidate = score + float(gain[v])
        if candidate < score:
            break
        in_low[v] = True
        score = candidate
        cross += l_matrix[:, v]
    return tuple(int(i) for i in np.flatnonzero(in_low))


@pytest.mark.parametrize(
    "kind, n", [("random_geometric", 64), ("random_geometric", 300), ("random_geometric", 1024), ("grid", 256)]
)
def test_greedy_max_cut_matches_loop_reference(kind, n):
    # On the Laplacian and on its Kron reduction (a dense Laplacian).
    l_matrix = gf.laplacian(gf.generate(kind, n, seed=1))
    keep = sampling.greedy_max_cut(l_matrix).keep_low
    assert keep == _reference_greedy_low_set(l_matrix)
    reduced = multires.kron_reduce(l_matrix, keep)
    assert sampling.greedy_max_cut(reduced).keep_low == _reference_greedy_low_set(reduced)


def test_greedy_max_cut_matches_loop_reference_on_a_non_symmetric_matrix():
    a = np.random.default_rng(3).standard_normal((60, 60))
    a[np.diag_indices(60)] += 8.0
    keep = sampling.greedy_max_cut(a).keep_low
    assert 1 < len(keep) < 59
    assert keep == _reference_greedy_low_set(a)


def test_sign_vector_matches_partition():
    g = gf.generate("random_geometric", 15, seed=1)
    pat = sampling.greedy_max_cut(gf.laplacian(g))
    assert set(pat.keep_low) | set(pat.keep_high) == set(range(g.n))
    assert not set(pat.keep_low) & set(pat.keep_high)
    for v in pat.keep_low:
        assert pat.sign[v] == 1.0
    for v in pat.keep_high:
        assert pat.sign[v] == -1.0


def test_cut_value_equals_quadratic_form():
    # cut(V_L, V_H) = s^T L s / 4 for the sign vector s.
    for seed in range(4):
        g = gf.generate("random_geometric", 12, seed=seed)
        l_matrix = gf.laplacian(g)
        pat = sampling.greedy_max_cut(l_matrix)
        expected = float(pat.sign @ l_matrix @ pat.sign) / 4.0
        assert sampling.cut_value(g, pat) == pytest.approx(expected, rel=1e-12)


def test_greedy_beats_90th_percentile_of_all_cuts():
    for seed in range(6):
        g = gf.generate("random_geometric", 9, seed=seed)
        pat = sampling.greedy_max_cut(gf.laplacian(g))
        greedy = sampling.cut_value(g, pat)
        vals = all_cut_values(g)
        assert greedy >= np.percentile(vals, 90) - 1e-12


def test_greedy_exact_on_structured_fixtures():
    for kind, n in (("ring", 6), ("path", 5), ("complete", 4)):
        g = gf.generate(kind, n)
        pat = sampling.greedy_max_cut(gf.laplacian(g))
        assert sampling.cut_value(g, pat) == pytest.approx(brute_force_max_cut(g), abs=1e-12)


def test_both_sides_nonempty_always():
    # The loop guard must leave V_H non-empty even on complete graphs
    # where every greedy gain stays non-negative for a while.
    for n in (2, 3, 5, 8):
        g = gf.generate("complete", n)
        pat = sampling.greedy_max_cut(gf.laplacian(g))
        assert len(pat.keep_low) >= 1
        assert len(pat.keep_high) >= 1


def test_weighted_graph_prefers_heavy_edge_cut():
    # One heavy edge dominates: the greedy cut must separate its endpoints.
    g = gf.Graph(4, ((0, 1, 10.0), (1, 2, 0.1), (2, 3, 0.1), (3, 0, 0.1)))
    pat = sampling.greedy_max_cut(gf.laplacian(g))
    assert (0 in pat.keep_low) != (1 in pat.keep_low)


# -- Pattern object -----------------------------------------------------------


def test_pattern_validation_rejects_overlap():
    with pytest.raises(InputError):
        sampling.SamplingPattern(keep_low=(0, 1), keep_high=(1, 2))


def test_pattern_validation_rejects_empty_side():
    with pytest.raises(InputError):
        sampling.SamplingPattern(keep_low=(0, 1, 2), keep_high=())


@pytest.mark.parametrize("low, high", [((1, 0), (2,)), ((0,), (2, 1))])
def test_pattern_refuses_a_channel_list_that_is_not_increasing(low, high):
    with pytest.raises(InputError, match="channel index lists must be strictly increasing"):
        sampling.SamplingPattern(low, high)


def test_cut_value_refuses_a_pattern_of_another_size():
    with pytest.raises(InputError, match="pattern size 3 does not match graph size 4"):
        sampling.cut_value(gf.generate("path", 4), sampling.SamplingPattern((0,), (1, 2)))


@pytest.mark.parametrize(
    "low, high", [((0, 1.5), (2,)), ((0, True), (2,)), (("2",), (0, 1)), ((2.9,), (0, 1)), ((0,), (1.0, 2))]
)
def test_pattern_rejects_indices_that_are_not_integers(low, high):
    # Refused, not truncated: int() would read (0, 1.5) as (0, 1) and (2.9,) as (2,).
    with pytest.raises(InputError, match="integers"):
        sampling.SamplingPattern(low, high)


def test_pattern_from_low_set():
    pat = sampling.SamplingPattern.from_dict({"n": 4, "keep_low": [0, 2]})
    assert pat.keep_low == (0, 2)
    assert pat.keep_high == (1, 3)
    np.testing.assert_allclose(pat.sign, [1.0, -1.0, 1.0, -1.0])


def test_pattern_dict_round_trip():
    pat = sampling.SamplingPattern.from_dict({"n": 5, "keep_low": [1, 3]})
    again = sampling.SamplingPattern.from_dict(pat.to_dict())
    assert again.keep_low == pat.keep_low
    assert again.keep_high == pat.keep_high


@pytest.mark.parametrize("keep_low", [[0.5, 2], [True, 2], [0, np.True_], [0.0, 2.0], [[0, 2]], ["0"], None])
def test_pattern_from_dict_rejects_non_integer_indices(keep_low):
    # int() used to truncate [0.5, 2] to (0, 2) and read [True, 2] as (1, 2).
    with pytest.raises(InputError, match="sequence of integers"):
        sampling.SamplingPattern.from_dict({"n": 4, "keep_low": keep_low})


@pytest.mark.parametrize("n", [4.7, 4.0, True, "4"])
def test_pattern_from_dict_rejects_non_integer_size(n):
    # int() used to truncate 4.7 to 4 and read "4" as 4.
    with pytest.raises(InputError, match="must be an integer"):
        sampling.SamplingPattern.from_dict({"n": n, "keep_low": [0, 2]})


@pytest.mark.parametrize("keep_low", [[-1], [4], [1, 4]])
def test_pattern_from_dict_rejects_an_index_out_of_range(keep_low):
    # [1, 4] with n = 4 leaves the high channel (0, 2, 3), and the two
    # together partition 0..4: only the range check holds the pattern to n.
    with pytest.raises(InputError, match="keep_low index out of range"):
        sampling.SamplingPattern.from_dict({"n": 4, "keep_low": keep_low})


@pytest.mark.parametrize("keep_low", [[2, 0], (0, 2), np.array([2, 0]), np.array([0, 2], dtype=np.uint8)])
def test_pattern_from_dict_accepts_integer_indices(keep_low):
    pat = sampling.SamplingPattern.from_dict({"n": 4, "keep_low": keep_low})
    assert pat.keep_low == (0, 2) and pat.keep_high == (1, 3)
    assert all(type(i) is int for i in pat.keep_low + pat.keep_high)


# -- Down/upsampling ----------------------------------------------------------
#
# Downsampling a channel keeps the entries its index tuple names; upsampling
# zero-fills the rest, which is the projector (I + J)/2 or (I - J)/2 for
# J = diag(sign).


def test_downsample_picks_channel_entries():
    pat = sampling.SamplingPattern.from_dict({"n": 4, "keep_low": [0, 2]})
    f = np.array([10.0, 20.0, 30.0, 40.0])
    np.testing.assert_allclose(f[list(pat.keep_low)], [10.0, 30.0])
    np.testing.assert_allclose(f[list(pat.keep_high)], [20.0, 40.0])


def test_upsample_then_downsample_is_identity():
    pat = sampling.SamplingPattern.from_dict({"n": 5, "keep_low": [1, 2]})
    f_low = np.array([1.5, -2.5])
    up = np.zeros(pat.n)
    up[list(pat.keep_low)] = f_low
    np.testing.assert_allclose(up, (1.0 + pat.sign) / 2.0 * up, atol=0)
    np.testing.assert_allclose(up[list(pat.keep_low)], f_low)


def test_down_then_up_masks_other_channel():
    pat = sampling.SamplingPattern.from_dict({"n": 4, "keep_low": [0, 3]})
    f = np.arange(4.0)
    masked = (1.0 + pat.sign) / 2.0 * f
    np.testing.assert_allclose(masked, [0.0, 0.0, 0.0, 3.0])


def test_channel_sum_reconstructs():
    # The two channel projections partition the identity.
    pat = sampling.SamplingPattern.from_dict({"n": 6, "keep_low": [0, 2, 4]})
    f = np.random.default_rng(0).standard_normal(6)
    low = (1.0 + pat.sign) / 2.0 * f
    high = (1.0 - pat.sign) / 2.0 * f
    np.testing.assert_allclose(low + high, f, atol=0)
