import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from toothalign import swin
from toothalign.case import build_tooth_point_image, tooth_centers
from toothalign.errors import BadHeadCount, IndivisibleGrid, InvalidArgument, OddColumns
from toothalign.swin import (
    CHANNELS,
    HEADS,
    _gelu,
    center_encoder,
    column_merge,
    cyclic_shift,
    init_weights,
    layer_norm,
    positional_encoding,
    predict_case,
    predict_transforms,
    swin_block,
    swtbs_forward,
    swtp_forward,
    window_allow_masks,
    window_attention,
    window_partition,
    window_reverse,
)
from toothalign.synthetic import SynthParams, generate_synthetic_case

from oracles import (
    full_grid_swin_block,
    map_biases,
    masked_window_attention,
    same_bits,
    two_pass_layer_norm,
    zero_biases,
)


@pytest.fixture(scope="module")
def weights():
    return init_weights(seed=0)


@pytest.fixture(scope="module")
def biased_weights(weights):
    rng = np.random.default_rng(77)
    return map_biases(weights, lambda b: rng.normal(0.0, 0.3, size=b.shape))


# ------------------------------------------------------------- primitives

def test_partition_reverse_bijection_2d(rng):
    grid = rng.normal(size=(32, 16, 8))
    win = window_partition(grid)
    assert win.shape == (8, 8, 8, 8)
    back = window_reverse(win, grid.shape)
    assert np.array_equal(back, grid)


def test_partition_reverse_bijection_1d(rng):
    seq = rng.normal(size=(32, 8))
    win = window_partition(seq)
    assert win.shape == (4, 8, 8)
    assert np.array_equal(window_reverse(win, seq.shape), seq)


def test_partition_row_major_layout():
    # tile (i, j) of the window list is grid block row i, block col j
    h = w = 16
    grid = (np.arange(h)[:, None, None] * 100.0 + np.arange(w)[None, :, None]).astype(float)
    win = window_partition(grid)
    assert win[0, 0, 0, 0] == 0.0
    assert win[1, 0, 0, 0] == 8.0  # second tile: cols 8.., row 0
    assert win[2, 0, 0, 0] == 800.0  # third tile: row block 1, cols 0..


def test_partition_rejects_indivisible():
    with pytest.raises(IndivisibleGrid):
        window_partition(np.zeros((30, 4)))
    with pytest.raises(IndivisibleGrid):
        window_partition(np.zeros((20, 16, 4)))


def test_cyclic_shift_inverts(rng):
    seq = rng.normal(size=(16, 4))
    assert np.array_equal(cyclic_shift(cyclic_shift(seq, 4), -4), seq)
    grid = rng.normal(size=(16, 16, 4))
    assert np.array_equal(cyclic_shift(cyclic_shift(grid, 4), -4), grid)
    assert np.array_equal(cyclic_shift(seq, 4)[0], seq[4])


def test_layer_norm_basics(rng):
    params = {"gamma": np.ones(32), "beta": np.zeros(32)}
    assert not layer_norm(np.zeros((4, 32)), params).any()
    x = rng.normal(2.0, 3.0, size=(10, 32))
    y = layer_norm(x, params)
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)  # eps skews slightly


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(1,), (5,), (32,), (9000,), (4, 16), (32, 64)]),
    c=st.sampled_from([1, 2, 3, 7, 8, 32, 64]),
    loc=st.sampled_from([0.0, 2.0, -1e3]),
    scale=st.sampled_from([1e-6, 0.1, 1.0, 30.0]),
)
def test_layer_norm_equals_two_pass_bit_for_bit(seed, lead, c, loc, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc, scale, size=lead + (c,))
    params = {"gamma": rng.normal(1.0, 0.5, size=c), "beta": rng.normal(0.0, 0.5, size=c)}
    before = x.copy()
    assert same_bits(layer_norm(x, params), two_pass_layer_norm(x, params))
    assert same_bits(x, before)


def test_gelu_equals_the_formula_bit_for_bit(rng):
    x = np.concatenate([rng.normal(0.0, 3.0, size=4096), [0.0, -0.0, 1e-300, -40.0, 40.0]])
    before = x.copy()
    assert same_bits(_gelu(x), 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))))
    assert same_bits(x, before)


MAXLOG = 709.782712893384  # log(DBL_MAX): cephes' erfc underflows to 0 past sqrt(MAXLOG)


def _near(*centers):
    """Doubles a few ulps, or a relative 1e-6, either side of a center."""
    return st.sampled_from(centers).flatmap(
        lambda c: st.one_of(
            st.integers(-4, 4).map(lambda k: float(c + k * np.spacing(c))),
            st.floats(c * (1 - 1e-6), c * (1 + 1e-6)),
        )
    )


ERF_INPUTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-30.0, 30.0),
    _near(1.0, 8.0, float(np.sqrt(MAXLOG)), 27.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arrays(np.float64, st.integers(1, 40), elements=ERF_INPUTS), st.booleans())
@pytest.mark.filterwarnings("error")
def test_erf_equals_scipy_erf_bit_for_bit(x, negate):
    """The cephes port against scipy.special.erf: finite doubles from
    subnormal to huge, both zeros, both infinities, NaN, and values
    beside the branch points 1 and 8 of cephes, its underflow point
    sqrt(MAXLOG) and 27. NaN stays NaN; everything else matches bit for
    bit, with no floating-point warning."""
    x = -x if negate else x
    got, want = swin._erf(x), erf(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert same_bits(got[~nan], want[~nan])


def test_gelu_frozen_values():
    assert _gelu(np.array([0.0]))[0] == 0.0
    assert _gelu(np.array([1.0]))[0] == pytest.approx(0.8413447460685429, abs=1e-15)
    assert _gelu(np.array([-1.0]))[0] == pytest.approx(-0.15865525393145707, abs=1e-15)


# ------------------------------------------------------------ allow masks

def test_allow_masks_unshifted_all_true():
    allow = window_allow_masks((16, 32), shifted=False, valid=np.ones(16, dtype=bool))
    assert allow.all()


def test_allow_masks_shifted_1d_blocks():
    allow = window_allow_masks((16, 32), shifted=True, valid=np.ones(16, dtype=bool))
    # first window: one contiguous region; last window: two wrapped halves
    assert allow[0].all()
    want = np.zeros((8, 8), dtype=bool)
    want[:4, :4] = True
    want[4:, 4:] = True
    assert np.array_equal(allow[1], want)


def test_allow_masks_block_invalid_keys():
    valid = np.ones(16, dtype=bool)
    valid[3] = False
    allow = window_allow_masks((16, 32), shifted=False, valid=valid)
    assert not allow[0][:, 3].any()
    assert allow[0][:, 2].all()


def test_allow_masks_2d_shifted_separates_wrapped_rows():
    allow = window_allow_masks((16, 16, 32), shifted=True, valid=np.ones((16, 16), dtype=bool))
    # bottom-right window mixes four wrapped quadrants of 4x4 cells
    # each: every token may see only its own 16-cell region
    last = allow[-1]
    assert last.shape == (64, 64)
    assert (last.sum(axis=1) == 16).all()
    assert last.sum() == 4 * 16 * 16
    assert last[0, 0] and not last[0, 36]


# --------------------------------------------------------------- attention

def test_attention_rows_sum_to_one(rng):
    # wv=0 with unit bias makes every value vector all-ones, and wo=I
    # passes the per-head row sums straight through
    c = 32
    weights = {
        "wq": rng.normal(0.0, 0.2, size=(c, c)),
        "wk": rng.normal(0.0, 0.2, size=(c, c)),
        "wv": np.zeros((c, c)),
        "wo": np.eye(c),
        "bq": np.zeros(c),
        "bk": np.zeros(c),
        "bv": np.ones(c),
        "bo": np.zeros(c),
    }
    windows = rng.normal(size=(3, 8, c))
    out = window_attention(windows, weights, np.ones((3, 8, 8), dtype=bool))
    assert np.allclose(out, 1.0, atol=1e-9)


def test_attention_orphan_query_is_zero(rng):
    c = 32
    weights = {
        "wq": rng.normal(0.0, 0.2, size=(c, c)),
        "wk": rng.normal(0.0, 0.2, size=(c, c)),
        "wv": np.zeros((c, c)),
        "wo": np.eye(c),
        "bq": np.zeros(c),
        "bk": np.zeros(c),
        "bv": np.ones(c),
        "bo": np.zeros(c),
    }
    allow = np.ones((1, 8, 8), dtype=bool)
    allow[0, 2, :] = False  # query 2 may attend to nothing
    out = window_attention(np.ones((1, 8, c)), weights, allow)
    assert np.allclose(out[0, 2], 0.0, atol=0)
    assert np.allclose(out[0, 0], 1.0, atol=1e-9)


# dead_query_rows and dead_key_columns leave whole query rows dead, or
# whole key columns, so the batches of window_attention take every
# size; dead_key_blocks kills whole aligned 8-token blocks as keys and
# as queries in every window, as an absent tooth does, so batches drop
# key blocks, and its first window allows every other pair
MASKS = [
    "random",
    "window_all_false",
    "query_row_false",
    "all_true",
    "dead_query_rows",
    "dead_key_columns",
    "dead_key_blocks",
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    nwin=st.integers(1, 4),
    length=st.sampled_from([1, 4, 8, 16, 64]),
    dh=st.integers(1, 8),
    scale=st.sampled_from([0.1, 1.0, 30.0]),
    mask=st.sampled_from(MASKS),
)
def test_attention_equals_masked_oracle_bit_for_bit(seed, nwin, length, dh, scale, mask):
    # large scales push allowed keys to exp underflow; biases are nonzero
    rng = np.random.default_rng(seed)
    c = HEADS * dh
    w = {k: rng.normal(0.0, 0.5, size=(c, c)) for k in ("wq", "wk", "wv", "wo")}
    w |= {k: rng.normal(0.0, 0.5, size=c) for k in ("bq", "bk", "bv", "bo")}
    windows = rng.normal(0.0, scale, size=(nwin, length, c))
    allow = rng.random((nwin, length, length)) < 0.6
    if mask == "window_all_false":
        allow[0] = False
    elif mask == "query_row_false":
        allow[-1, length // 2] = False
    elif mask == "all_true":
        allow[:] = True
    elif mask == "dead_query_rows":
        allow[rng.random((nwin, length)) < 0.5] = False
    elif mask == "dead_key_columns":
        allow[:, :, rng.random(length) < 0.5] = False
    elif mask == "dead_key_blocks":
        allow[0] = True
        dead = np.repeat(rng.random(-(-length // 8)) < 0.5, 8)[:length]
        allow[:, dead] = False
        allow[:, :, dead] = False
    got = window_attention(windows, w, allow)
    assert same_bits(got, masked_window_attention(windows, w, allow))


def test_attention_rejects_bad_heads(rng):
    c = 30  # not divisible by 4
    weights = {k: np.zeros((c, c)) for k in ("wq", "wk", "wv", "wo")}
    weights |= {k: np.zeros(c) for k in ("bq", "bk", "bv", "bo")}
    with pytest.raises(BadHeadCount):
        window_attention(np.zeros((1, 8, c)), weights, np.ones((1, 8, 8), dtype=bool))


# ------------------------------------------------------------------ blocks

def test_block_delta_confined_to_window_band(weights, rng):
    # an impulse in one cell can reach only the 8 rows sharing its
    # window column band, never beyond
    x = rng.normal(0.0, 0.5, size=(32, 16, CHANNELS))
    presence = np.ones(32, dtype=bool)
    base = swin_block(x, weights["swtp"][0]["blk_a"], False, presence)
    bumped = x.copy()
    bumped[10, 3, 7] += 1.0
    out = swin_block(bumped, weights["swtp"][0]["blk_a"], False, presence)
    changed_rows = np.unique(np.nonzero((out != base).any(axis=2))[0])
    assert set(changed_rows) <= set(range(8, 16))
    assert 10 in changed_rows


def _cells(presence, width):
    """Per-cell validity of a full grid whose absent rows are invalid."""
    return np.broadcast_to(presence[:, None], (presence.size, width))


def test_block_zero_rows_stay_zero(weights, rng):
    # zero biases: the full-grid block keeps absent all-zero rows zero,
    # and the block, which never carries them, matches it on the rest
    clean = zero_biases(weights)
    block = clean["swtp"][1]["blk_a"]
    x = rng.normal(size=(32, 16, CHANNELS))
    presence = np.ones(32, dtype=bool)
    presence[[0, 13, 31]] = False
    x[~presence] = 0.0
    for shifted in (False, True):
        out = swin_block(x[presence], block, shifted, presence)
        full = full_grid_swin_block(x, block, shifted, _cells(presence, 16))
        assert not full[~presence].any()
        assert same_bits(out, full[presence])
        assert out[0].any()


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("shape", [(32, 16, CHANNELS), (32, CHANNELS)])
def test_block_invalid_cells_pass_through(biased_weights, rng, shape, shifted):
    # per-row presence, nonzero biases: a sequence's absent tokens leave
    # the block bit for bit as they entered, a grid carries only its
    # present rows, live cells match the full-grid oracle, and the
    # caller's array is not written
    x = rng.normal(size=shape)
    presence = rng.random(32) < 0.6
    fill = (int((~presence).sum()),) + (1,) * (len(shape) - 1)
    x[~presence] = rng.choice([0.0, -0.0, 3.5], size=fill)
    before = x.copy()
    block = biased_weights["swtp"][2]["blk_b"]
    if len(shape) == 2:
        out = swin_block(x, block, shifted, presence)
        assert same_bits(out[~presence], x[~presence])
        out = out[presence]
        want = full_grid_swin_block(x, block, shifted, presence)
    else:
        out = swin_block(x[presence], block, shifted, presence)
        want = full_grid_swin_block(x, block, shifted, _cells(presence, shape[1]))
    assert same_bits(x, before)
    assert same_bits(out, want[presence])
    every = np.ones(32, dtype=bool)
    assert same_bits(
        swin_block(x, block, shifted, every),
        full_grid_swin_block(x, block, shifted, np.ones(shape[:-1], dtype=bool)),
    )


@pytest.mark.parametrize("shifted", [False, True])
def test_block_with_absent_rows_equals_full_grid_block(biased_weights, rng, shifted):
    # absent tooth rows in every 8-row band: the block's windows hold
    # the present rows of each band only
    x = rng.normal(size=(32, 64, CHANNELS))
    present = np.ones(32, dtype=bool)
    present[[0, 5, 6, 9, 17, 18, 19, 20, 27, 31]] = False
    x[~present] = 0.0
    block = biased_weights["swtp"][1]["blk_a"]
    got = swin_block(x[present], block, shifted, present)
    assert same_bits(got, full_grid_swin_block(x, block, shifted, _cells(present, 64))[present])


# all: every slot present; one: a single present slot; empty_band: one
# window band of 8 slots (rolled by SHIFT when shifted, so the wrapped
# band too) without a present slot; one_wrapped_region: of the wrapped
# band's two regions, slots 28-31 and 0-3, only one holds present slots
ROW_PATTERNS = ["random", "all", "one", "empty_band", "one_wrapped_region"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([8, 16, 24, 32, 40, 48, 56, 64]),
    shifted=st.booleans(),
    biased=st.booleans(),
    pattern=st.sampled_from(ROW_PATTERNS),
)
def test_block_on_present_rows_equals_full_grid_block(
    weights, biased_weights, seed, width, shifted, biased, pattern
):
    rng = np.random.default_rng(seed)
    presence = rng.random(32) < rng.uniform(0.2, 0.9)
    if pattern == "all":
        presence[:] = True
    elif pattern == "one":
        presence[:] = False
        presence[rng.integers(32)] = True
    elif pattern == "empty_band":
        start = 8 * rng.integers(4) + (4 if shifted else 0)
        presence[(start + np.arange(8)) % 32] = False
    elif pattern == "one_wrapped_region":
        gone, kept = (np.arange(28, 32), np.arange(4)) if rng.random() < 0.5 else (np.arange(4), np.arange(28, 32))
        presence[gone] = False
        presence[rng.choice(kept)] = True
    if not presence.any():
        presence[rng.integers(32)] = True
    x = rng.normal(size=(32, width, CHANNELS))
    block = (biased_weights if biased else weights)["swtp"][rng.integers(4)]["blk_b"]
    got = swin_block(x[presence], block, shifted, presence)
    want = full_grid_swin_block(x, block, shifted, _cells(presence, width))
    assert same_bits(got, want[presence])


# the block runs on chunks of 32 columns: the last chunk is partial in
# the unshifted layout for widths 8, 72, 88, 136 and 520, and in the
# shifted inner columns (width - 8) for 88 and 512
@pytest.mark.parametrize("width", [8, 72, 88, 136, 512, 520])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("biased", [False, True])
def test_block_chunks_equal_full_grid_block(weights, biased_weights, width, shifted, biased):
    rng = np.random.default_rng(width)
    presence = rng.random(32) < 0.6
    presence[[2, 30]] = True, False
    x = rng.normal(size=(32, width, CHANNELS))
    block = (biased_weights if biased else weights)["swtp"][0]["blk_b"]
    got = swin_block(x[presence], block, shifted, presence)
    want = full_grid_swin_block(x, block, shifted, _cells(presence, width))
    assert same_bits(got, want[presence])


@pytest.mark.parametrize("shifted", [False, True])
def test_block_working_set_is_one_chunk(weights, shifted):
    # counts allocations, times nothing: a stage-1 block on 20 present
    # rows peaks at about 5 MB above its input (the 2.6 MB output
    # included); built for the whole grid at once it took 36.7 MB
    presence = np.zeros(32, dtype=bool)
    presence[3:13] = presence[19:29] = True
    x = np.random.default_rng(5).normal(size=(20, 512, CHANNELS))
    block = weights["swtp"][0]["blk_a"]
    tracemalloc.start()
    try:
        swin_block(x, block, shifted, presence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("shape", [(32, 24, CHANNELS), (32, CHANNELS)])
def test_block_leaves_its_input_unwritten(biased_weights, rng, shape, shifted):
    presence = rng.random(32) < 0.7
    x = rng.normal(size=shape)
    if len(shape) == 3:
        x = x[presence]
    before = x.copy()
    swin_block(x, biased_weights["swtp"][1]["blk_a"], shifted, presence)
    assert same_bits(x, before)


@pytest.mark.parametrize("shifted", [False, True])
def test_block_in_place_equals_fresh_output(biased_weights, rng, shifted):
    # the tower's use: out is the input grid itself
    presence = rng.random(32) < 0.7
    x = rng.normal(size=(int(presence.sum()), 88, CHANNELS))
    block = biased_weights["swtp"][3]["blk_b"]
    want = swin_block(x, block, shifted, presence)
    got = swin_block(x, block, shifted, presence, out=x)
    assert got is x
    assert same_bits(got, want)


@pytest.mark.parametrize("shifted", [False, True])
def test_block_rejects_a_grid_of_other_rows_than_present_slots(weights, rng, shifted):
    presence = np.ones(32, dtype=bool)
    presence[[3, 17]] = False
    block = weights["swtp"][0]["blk_b"]
    with pytest.raises(InvalidArgument, match="32 rows for 30 present slots"):
        swin_block(rng.normal(size=(32, 16, CHANNELS)), block, shifted, presence)
    with pytest.raises(InvalidArgument):
        swin_block(rng.normal(size=(29, 16, CHANNELS)), block, shifted, presence)


@pytest.mark.parametrize("shifted", [False, True])
def test_block_rejects_indivisible_2d_grid(weights, rng, shifted):
    block = weights["swtp"][0]["blk_b"]
    with pytest.raises(IndivisibleGrid):
        swin_block(rng.normal(size=(32, 12, CHANNELS)), block, shifted, np.ones(32, dtype=bool))
    with pytest.raises(IndivisibleGrid):
        swin_block(rng.normal(size=(30, 16, CHANNELS)), block, shifted, np.ones(30, dtype=bool))


def test_column_merge_halves_and_keeps_rows_apart(weights, rng):
    grid = rng.normal(size=(32, 16, CHANNELS))
    merged = column_merge(grid, weights["swtp"][0]["merge"])
    assert merged.shape == (32, 8, CHANNELS)
    bumped = grid.copy()
    bumped[5, 2, 0] += 1.0
    merged2 = column_merge(bumped, weights["swtp"][0]["merge"])
    diff_rows = np.unique(np.nonzero((merged2 != merged).any(axis=2))[0])
    assert diff_rows.tolist() == [5]
    with pytest.raises(OddColumns):
        column_merge(rng.normal(size=(32, 15, CHANNELS)), weights["swtp"][0]["merge"])


# ---------------------------------------------------------------- branches

def test_swtp_trace_and_shape(weights, rng):
    grid = rng.normal(size=(32, 512, CHANNELS))
    pooled, trace = swtp_forward(grid, weights, np.ones(32, dtype=bool), return_trace=True)
    assert trace == [512, 256, 128, 64, 32]
    assert pooled.shape == (32, CHANNELS)


def test_swtp_masks_absent_rows(weights, rng):
    clean = zero_biases(weights)
    grid = rng.normal(size=(32, 512, CHANNELS))
    presence = np.ones(32, dtype=bool)
    for row in (2, 17):
        presence[row] = False
        grid[row] = 0.0
    pooled = swtp_forward(grid, clean, presence)
    assert not pooled[2].any()
    assert not pooled[17].any()
    assert pooled[3].any()


def test_swtbs_matches_unrolled_oracle(weights, rng):
    x = rng.normal(size=(32, CHANNELS))
    block = weights["center_block"]
    presence = np.ones(32, dtype=bool)
    got = swtbs_forward(x, block, presence)
    # replicate the loop exactly: stepwise residual accumulation
    cur = x
    acc = np.zeros_like(x)
    for shifted in (False, True, False, True):
        nxt = swin_block(cur, block, shifted, presence)
        acc = acc + (nxt - cur)
        cur = nxt
    want = cur + acc
    assert np.array_equal(got, want)


def test_swtbs_uses_one_shared_block(weights, rng):
    # corrupting the single block changes every application: the output
    # differs from a tower that uses the original block anywhere
    x = rng.normal(size=(32, CHANNELS))
    block = weights["center_block"]
    presence = np.ones(32, dtype=bool)
    out_a = swtbs_forward(x, block, presence)
    other = init_weights(seed=9)["center_block"]
    out_b = swtbs_forward(x, other, presence)
    assert not np.array_equal(out_a, out_b)


# --------------------------------------------------------------- encoders

def test_positional_encoding_values():
    pe = positional_encoding()
    assert pe.shape == (32, CHANNELS)
    assert not pe[0, 0::2].any()  # sin(0)
    assert np.all(pe[0, 1::2] == 1.0)  # cos(0)
    assert np.unique(pe, axis=0).shape[0] == 32


def test_center_encoder_distinguishes_slots(weights):
    centers = np.zeros((32, 3))
    centers[:] = [0.1, -0.2, 0.05]
    emb = center_encoder(centers, weights)
    pe = positional_encoding()
    # identical inputs at different slots differ by exactly the code
    assert np.allclose(emb[4] - emb[9], pe[4] - pe[9], atol=0)


# ----------------------------------------------------------------- weights

def test_init_weights_deterministic():
    a = init_weights(seed=3)
    b = init_weights(seed=3)
    assert np.array_equal(a["head"]["w2"], b["head"]["w2"])
    assert np.array_equal(a["swtp"][2]["merge"]["w"], b["swtp"][2]["merge"]["w"])
    c = init_weights(seed=4)
    assert not np.array_equal(a["head"]["w2"], c["head"]["w2"])


def test_init_weights_structure():
    w = init_weights(seed=0)
    assert len(w["swtp"]) == 4
    assert w["patch_embed"]["w"].shape == (3, CHANNELS)
    assert w["head"]["w2"].shape == (CHANNELS, 7)
    assert not w["head"]["b2"].any()


def test_zero_biases_scrubs_everything():
    w = init_weights(seed=5)
    w["center_block"]["attn"]["bo"][:] = 7.0
    w["swtp"][3]["merge"]["b"][:] = -2.0
    z = zero_biases(w)
    assert not z["center_block"]["attn"]["bo"].any()
    assert not z["swtp"][3]["merge"]["b"].any()
    assert w["center_block"]["attn"]["bo"].any()  # original untouched
    assert np.array_equal(z["head"]["w1"], w["head"]["w1"])


# -------------------------------------------------------------- full model

def test_predict_transforms_contract(weights, case7):
    tpi = build_tooth_point_image(case7, ordering="arch_line")
    out = predict_transforms(tpi, tooth_centers(case7), weights)
    present_ids = {t.id for t in case7.upper.teeth + case7.lower.teeth}
    assert set(out) == present_ids
    centers = tooth_centers(case7)
    for tid, t in out.items():
        assert np.linalg.norm(t.rotation) == pytest.approx(1.0, abs=1e-12)
        assert t.rotation[0] >= 0.0
        assert np.array_equal(t.pivot, centers[tid - 1])


def test_predict_transforms_absent_omitted(weights, case7):
    case = case7.copy()
    victim = case.upper.teeth[3]
    victim.present = False
    tpi = build_tooth_point_image(case, ordering="arch_line")
    out = predict_transforms(tpi, tooth_centers(case), weights)
    assert victim.id not in out
    assert len(out) == 23


def test_predict_transforms_empty_case(weights, case7):
    case = case7.copy()
    for t in case.upper.teeth + case.lower.teeth:
        t.present = False
    tpi = build_tooth_point_image(case, ordering="local_z")
    assert predict_transforms(tpi, tooth_centers(case), weights) == {}


def test_predict_transforms_leaves_its_inputs_unwritten(biased_weights, case7):
    tpi = build_tooth_point_image(case7, ordering="arch_line")
    centers = tooth_centers(case7)
    data, centers_before = tpi.data.copy(), centers.copy()
    predict_transforms(tpi, centers, biased_weights)
    assert same_bits(tpi.data, data)
    assert same_bits(centers, centers_before)


def test_forward_working_set_stays_near_the_present_row_grid(weights):
    # counts allocations, times nothing: one forward pass on 20 present
    # teeth peaks at about 2.4 times the stage-1 present-row grid above
    # what was live before it; embedding all 32 rows, a fresh output per
    # block and chunks of 64 columns took about 5.4 times
    case = generate_synthetic_case(SynthParams(teeth_per_jaw=10), seed=100)
    tpi = build_tooth_point_image(case, ordering="arch_line")
    centers = tooth_centers(case)
    grid_bytes = int(np.count_nonzero(tpi.presence)) * 512 * CHANNELS * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        predict_transforms(tpi, centers, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 3 * grid_bytes


def test_predict_case_deterministic(weights, case7):
    a = predict_case(case7, weights)
    b = predict_case(case7, weights)
    for ta, tb in zip(a.upper.teeth + a.lower.teeth, b.upper.teeth + b.lower.teeth):
        assert np.array_equal(ta.points, tb.points)
        assert np.array_equal(ta.gt_points, tb.gt_points)
    # untrained weights still move the moved teeth somewhere
    assert any(
        not np.array_equal(ta.points, tc.points)
        for ta, tc in zip(a.upper.teeth, case7.upper.teeth)
    )


def _case_with_absent_teeth():
    case = generate_synthetic_case(SynthParams(teeth_per_jaw=12), seed=5, case_id="scattered")
    for tooth in case.upper.teeth[1::3] + case.lower.teeth[::4]:
        tooth.present = False
    return case


FORWARD_CASES = {
    "8 teeth": lambda: generate_synthetic_case(SynthParams(teeth_per_jaw=8), seed=100),
    "9 teeth": lambda: generate_synthetic_case(SynthParams(teeth_per_jaw=9), seed=100),
    "10 teeth": lambda: generate_synthetic_case(SynthParams(teeth_per_jaw=10), seed=100),
    "12 teeth": lambda: generate_synthetic_case(SynthParams(teeth_per_jaw=12), seed=100),
    "scattered absent ids": _case_with_absent_teeth,
    # presence 0001111111110000 per jaw: the shifted 1D windows of the
    # center and fusion branches hold exactly one present tooth
    "one live token per shifted window": lambda: generate_synthetic_case(
        SynthParams(teeth_per_jaw=9), seed=1001
    ),
}


def _full_grid_block(grid, weights, shifted, presence, out=None):
    # the oracle in swin_block's place; the point tower writes into its
    # own grid through out, and takes the oracle's fresh array instead
    return full_grid_swin_block(grid, weights, shifted, presence)


@pytest.mark.parametrize("name", list(FORWARD_CASES))
def test_predict_transforms_equals_full_grid_forward(weights, biased_weights, monkeypatch, name):
    case = FORWARD_CASES[name]()
    tpi = build_tooth_point_image(case, ordering="arch_line")
    centers = tooth_centers(case)
    for w in (weights, biased_weights):
        got = predict_transforms(tpi, centers, w)
        with monkeypatch.context() as m:
            m.setattr(swin, "swin_block", _full_grid_block)
            want = predict_transforms(tpi, centers, w)
        assert list(got) == list(want)
        for tid in want:
            assert same_bits(got[tid].rotation, want[tid].rotation), tid
            assert same_bits(got[tid].translation, want[tid].translation), tid
