"""Forward-only reference of the alignment network: a point-cloud
branch with shifted-window attention over a 32-row tooth grid, a
center-feature branch of shared blocks, fusion, and a 7-parameter
rigid-transform head.

Deterministic given (weights, input). Weights come seeded and
untrained: this module validates shapes, window mechanics, weight
sharing, and masking behavior, not clinical accuracy.

Grid conventions: a 2D feature grid is (rows, cols, C) with rows fixed
at 32 (one per tooth slot); a 1D token sequence is (n, C). Every
feature has CHANNELS channels split over HEADS attention heads.
Attention windows are WINDOW x WINDOW tiles of the grid (WINDOW tokens
of a sequence), and a shifted block rolls its input by SHIFT along
every windowed axis first (Swin, Liu et al. 2021). Merging only ever
halves cols.

There is one path through the network, and it is masked. Every block
takes the validity of its cells: an absent tooth's cells are blocked
as attention keys, and a block neither normalizes them nor runs
attention or MLP on them, so an invalid cell leaves every block
unchanged. With zero biases an all-zero row therefore stays exactly
zero through the whole network.

Skipping work never moves a bit. Attention works on whole aligned
blocks of 8 tokens and drops every block that holds no live query and
no allowed key. An absent tooth is one grid row, so it is one such
block in every 2D window, and attention neither projects, scores nor
sums it, as query or as key; window_attention says why dropping whole
blocks is exact. The tests hold every shortcut to a plain full-grid
oracle, bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .case import (
    NORM_SCALE_MM,
    Case,
    ToothPointImage,
    build_tooth_point_image,
    tooth_assembler,
    tooth_centers,
)
from .errors import BadHeadCount, IndivisibleGrid, OddColumns
from .geometry import RigidTransform, quat_normalize

CHANNELS = 32
SLOTS = 32  # tooth slots: the rows of every grid
HEADS = 4
WINDOW = 8
SHIFT = 4
SWTP_STAGES = 4
NORM_EPS = 1e-5  # added to the layer-norm variance
# tokens per attention block, and the longest window whose key blocks
# may be dropped; see window_attention
_ROW_BLOCK = 8
_PAIRWISE_BLOCK = 128


# ------------------------------------------------------------- primitives

def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1.0 + erf(x / sqrt(2))) in the same operation order,
    # on two buffers instead of five
    e = x / np.sqrt(2.0)
    erf(e, out=e)
    e += 1.0
    y = 0.5 * x
    y *= e
    return y


def layer_norm(x: np.ndarray, params: dict) -> np.ndarray:
    # one centering pass, reused for the variance: the same operations
    # np.var runs, in the same order
    y = x - x.mean(axis=-1, keepdims=True)
    var = (y * y).sum(axis=-1, keepdims=True) / x.shape[-1]
    y /= np.sqrt(var + NORM_EPS)
    y *= params["gamma"]
    y += params["beta"]
    return y


def window_partition(grid: np.ndarray) -> np.ndarray:
    """Non-overlapping tiles in row-major order.

    (H, W, C) -> (H/s * W/s, s, s, C); a 1D sequence (n, C) -> (n/s, s, C),
    with s = WINDOW.
    """
    s = WINDOW
    if grid.ndim == 2:
        n, c = grid.shape
        if n % s:
            raise IndivisibleGrid(f"{n} tokens not divisible by window {s}")
        return grid.reshape(n // s, s, c)
    h, w, c = grid.shape
    if h % s or w % s:
        raise IndivisibleGrid(f"{h}x{w} grid not divisible by window {s}")
    tiles = grid.reshape(h // s, s, w // s, s, c)
    return tiles.transpose(0, 2, 1, 3, 4).reshape(-1, s, s, c)


def window_reverse(windows: np.ndarray, grid_shape: tuple) -> np.ndarray:
    """Exact inverse of window_partition for the given grid shape."""
    s = WINDOW
    if len(grid_shape) == 2:
        n, c = grid_shape
        return windows.reshape(n, c)
    h, w, c = grid_shape
    tiles = windows.reshape(h // s, w // s, s, s, c)
    return tiles.transpose(0, 2, 1, 3, 4).reshape(h, w, c)


def cyclic_shift(grid: np.ndarray, shift: int) -> np.ndarray:
    """Rolls the grid cyclically; cyclic_shift(g, -shift) inverts."""
    if grid.ndim == 2:
        return np.roll(grid, -shift, axis=0)
    return np.roll(grid, (-shift, -shift), axis=(0, 1))


def _region_ids_1d(n: int) -> np.ndarray:
    """Along one axis rolled by SHIFT: 0 for cells still beside their
    old neighbors, 1 and 2 for the two parts that share the last window
    but were not neighbors before the roll."""
    ids = np.zeros(n, dtype=int)
    ids[n - WINDOW : n - SHIFT] = 1
    ids[n - SHIFT :] = 2
    return ids


def window_allow_masks(grid_shape: tuple, shifted: bool, valid: np.ndarray) -> np.ndarray:
    """(nwin, L, L) flags of permitted attention pairs per window.

    Combines the wrapped-region separation of a shifted layout (regions
    that were not neighbors before the roll must not attend to each
    other) with key validity: invalid (absent-tooth) cells, marked
    False in ``valid`` (one flag per token or grid cell), never serve
    as keys.
    """
    valid = np.asarray(valid, dtype=bool)[..., None]
    if shifted:
        valid = cyclic_shift(valid, SHIFT)
        rid = _region_ids_1d(grid_shape[0])
        if len(grid_shape) == 3:
            rid = rid[:, None] * 3 + _region_ids_1d(grid_shape[1])[None, :]
    else:
        rid = np.zeros(valid.shape[:-1], dtype=int)
    valid_w = window_partition(valid)
    valid_w = valid_w.reshape(valid_w.shape[0], -1)
    rid_w = window_partition(rid[..., None]).reshape(valid_w.shape)
    allow = rid_w[:, :, None] == rid_w[:, None, :]
    return allow & valid_w[:, None, :]


def window_attention(windows: np.ndarray, weights: dict, allow: np.ndarray) -> np.ndarray:
    """Multi-head scaled dot-product attention within each window.

    ``windows`` is (nwin, L, C) (flatten tile dims first) and ``allow``
    (nwin, L, L). Disallowed keys get zero attention weight; a query
    with no allowed key yields a zero row before the output projection,
    so its output is ``0 @ wo + bo``. Softmax rows over allowed keys
    sum to 1.

    Each window is cut into aligned blocks of 8 tokens (one block when
    L is not a multiple of 8 or exceeds 128) and keeps each block that
    holds a live query (one with an allowed key) or a key some query
    allows, so every allowed pair lies among its kept tokens. Windows
    that keep the same blocks form one batch, and Q, K and V are
    projected from one gather of the kept tokens. On the tooth grid an
    absent tooth is one whole block of every 2D window: its query rows
    and its keys are both dropped. Dropping whole blocks moves no bit:

    - Each row sum of the softmax loses only exact +0 terms, exp(-inf)
      of the dropped keys. numpy sums a row of at most 128 with eight
      accumulators, token i going to accumulator i mod 8, so an aligned
      block takes one +0 from each accumulator and leaves every other
      term where it was. In ``probs @ v`` the dropped keys are
      exact-zero terms of the K-loop.
    - Every GEMM runs on a multiple of 8 rows or on the whole window.
      Under OpenBLAS such a row subset rounds each row exactly as the
      full product does, while other sizes can take other kernels (a
      single row goes to gemv) and move the last bits.
    - A kept row with no allowed key gives ``0 @ wo + bo``, as do the
      rows of dropped blocks.

    The mask enters as an additive 0/-inf bias on the scores, and the
    softmax runs in place on the one scores buffer: exp(-inf) is
    already 0, so no second masking pass is needed. A batch whose kept
    pairs are all allowed (every unshifted window of the tooth grid,
    and most shifted ones) skips the bias and the dead-row fix-ups:
    adding the bias 0 changes a score only from -0 to +0, and exp maps
    both to 1.
    """
    c = windows.shape[-1]
    if c % HEADS:
        raise BadHeadCount(f"{c} channels not divisible by {HEADS} heads")
    dh = c // HEADS

    def heads_first(x):
        # (windows, heads, rows, dh) views make both contractions batched BLAS matmuls.
        return x.reshape(x.shape[0], x.shape[1], HEADS, dh).transpose(0, 2, 1, 3)

    def attend(x, allow):
        # Separate Q, K and V projections, not one (C, 3C) GEMM: the
        # fused product is no faster here and OpenBLAS rounds it
        # differently at some widths.
        q = heads_first(x @ weights["wq"] + weights["bq"])
        k = heads_first(x @ weights["wk"] + weights["bk"])
        v = heads_first(x @ weights["wv"] + weights["bv"])
        scores = q @ k.transpose(0, 1, 3, 2)
        scores /= np.sqrt(dh)
        if allow is None:
            # every pair allowed: no -inf, every top finite, every denom >= 1
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
        else:
            scores += np.where(allow, 0.0, -np.inf)[:, None, :, :]
            top = scores.max(axis=-1, keepdims=True)
            # a query with no allowed key has top -inf; 0 keeps its exps 0, not NaN
            top[~np.isfinite(top)] = 0.0
            scores -= top
            np.exp(scores, out=scores)
            denom = scores.sum(axis=-1, keepdims=True)
            denom[denom == 0.0] = 1.0
            scores /= denom
        out = (scores @ v).transpose(0, 2, 1, 3).reshape(x.shape)
        return out @ weights["wo"] + weights["bo"]

    nwin, length = allow.shape[:2]
    block = _ROW_BLOCK if length % _ROW_BLOCK == 0 and length <= _PAIRWISE_BLOCK else length
    # a window keeps each block holding a live query (one with an
    # allowed key) or a key some query allows, and computes and attends
    # over its kept tokens only; every allowed pair lies inside them
    used = allow.any(axis=-1) | allow.any(axis=1)
    kept_blocks = used.reshape(nwin, -1, block).any(axis=-1)
    kept = np.repeat(kept_blocks, block, axis=1)
    # no dead row and no disallowed pair among the kept tokens
    full = np.count_nonzero(allow, axis=(1, 2)) == np.count_nonzero(kept, axis=1) ** 2
    # rows no batch computes get the dead-row output, from an 8-row GEMM
    out = np.empty_like(windows)
    out[...] = (np.zeros((_ROW_BLOCK, c)) @ weights["wo"] + weights["bo"])[0]
    _, first, group = np.unique(
        np.packbits(np.column_stack([kept_blocks, full]), axis=1),
        axis=0,
        return_index=True,
        return_inverse=True,
    )
    for p, w0 in enumerate(first):
        if kept_blocks[w0].any():
            wins = np.flatnonzero(group == p)
            tokens = np.flatnonzero(kept[w0])
            sub = np.ix_(wins, tokens)
            mask = None if full[w0] else allow[np.ix_(wins, tokens, tokens)]
            out[sub] = attend(windows[sub], mask)
    return out


def swin_block(grid: np.ndarray, weights: dict, shifted: bool, valid: np.ndarray) -> np.ndarray:
    """Pre-norm transformer block with (shifted-)window attention.

    norm -> windowed attention -> residual, then norm -> MLP ->
    residual. ``valid`` marks live cells (1D: per token, 2D: per grid
    cell). An invalid cell provides no key and skips both norms, the
    attention output and the MLP: it leaves the block exactly as it
    entered. The caller's ``grid`` is never written.
    """
    valid = np.asarray(valid, dtype=bool)
    h = np.zeros_like(grid)
    h[valid] = layer_norm(grid[valid], weights["ln1"])
    if shifted:
        h = cyclic_shift(h, SHIFT)
    allow = window_allow_masks(grid.shape, shifted, valid)
    # a valid cell is its own allowed key and an invalid cell is
    # nobody's, so the diagonal is query validity: an invalid query
    # gets no key, and window_attention skips its row
    allow &= np.diagonal(allow, axis1=1, axis2=2)[:, :, None]
    win = window_partition(h)
    flat = win.reshape(win.shape[0], -1, win.shape[-1])
    att = window_attention(flat, weights["attn"], allow)
    att = window_reverse(att.reshape(win.shape), grid.shape)
    if shifted:
        att = cyclic_shift(att, -SHIFT)
    x = grid[valid] + att[valid]
    mlp = weights["mlp"]
    hidden = _gelu(layer_norm(x, weights["ln2"]) @ mlp["w1"] + mlp["b1"])
    out = grid.copy()
    out[valid] = x + (hidden @ mlp["w2"] + mlp["b2"])
    return out


def column_merge(grid: np.ndarray, weights: dict) -> np.ndarray:
    """Concatenates adjacent column pairs and projects back to C
    channels; rows never mix."""
    h, w, c = grid.shape
    if w % 2:
        raise OddColumns(f"cannot merge {w} columns")
    paired = grid.reshape(h, w // 2, 2 * c)
    return paired @ weights["w"] + weights["b"]


# ------------------------------------------------------------- the branches

def swtbs_forward(features: np.ndarray, block_weights: dict, presence: np.ndarray) -> np.ndarray:
    """Four applications of ONE shared block (alternating regular and
    shifted windows) over a (32, C) token sequence; every application's
    residual is accumulated and added to the final output. ``presence``
    marks the live tokens."""
    x = features
    acc = np.zeros_like(features)
    for shifted in (False, True, False, True):
        nxt = swin_block(x, block_weights, shifted, presence)
        acc = acc + (nxt - x)
        x = nxt
    return x + acc


def swtp_forward(grid: np.ndarray, weights: dict, presence: np.ndarray, return_trace: bool = False):
    """Point-branch tower: four stages of [regular block, shifted
    block, column merge] take (32, 512, C) down to (32, 32, C) at
    constant channels, then average-pool the columns to (32, C).

    ``presence`` marks the live tooth rows; pass return_trace=True to
    get the column count after entry and each stage.
    """
    x = grid
    valid = np.broadcast_to(np.asarray(presence, dtype=bool)[:, None], x.shape[:2]).copy()
    trace = [x.shape[1]]
    for stage in weights["swtp"]:
        x = swin_block(x, stage["blk_a"], False, valid)
        x = swin_block(x, stage["blk_b"], True, valid)
        x = column_merge(x, stage["merge"])
        valid = valid[:, : x.shape[1]]
        trace.append(x.shape[1])
    pooled = x.mean(axis=1)
    if return_trace:
        return pooled, trace
    return pooled


def positional_encoding() -> np.ndarray:
    """Fixed sinusoidal code over tooth slot index, (SLOTS, CHANNELS)."""
    pos = np.arange(SLOTS)[:, None].astype(float)
    i = np.arange(CHANNELS // 2)[None, :].astype(float)
    freq = 1.0 / np.power(10000.0, 2.0 * i / CHANNELS)
    pe = np.zeros((SLOTS, CHANNELS))
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe


def center_encoder(centers: np.ndarray, weights: dict) -> np.ndarray:
    """Per-tooth MLP embedding of normalized centers plus the fixed
    positional code, so identical centers at different slots embed
    differently."""
    w = weights["center_mlp"]
    h = _gelu(centers @ w["w1"] + w["b1"])
    emb = h @ w["w2"] + w["b2"]
    return emb + positional_encoding()


# --------------------------------------------------------------- weights

def _linear(rng, n_in: int, n_out: int) -> dict:
    return {"w": rng.normal(0.0, 0.02, size=(n_in, n_out)), "b": np.zeros(n_out)}


def _block(rng, c: int) -> dict:
    return {
        "ln1": {"gamma": np.ones(c), "beta": np.zeros(c)},
        "attn": {
            "wq": rng.normal(0.0, 0.02, size=(c, c)),
            "wk": rng.normal(0.0, 0.02, size=(c, c)),
            "wv": rng.normal(0.0, 0.02, size=(c, c)),
            "wo": rng.normal(0.0, 0.02, size=(c, c)),
            "bq": np.zeros(c),
            "bk": np.zeros(c),
            "bv": np.zeros(c),
            "bo": np.zeros(c),
        },
        "ln2": {"gamma": np.ones(c), "beta": np.zeros(c)},
        "mlp": {
            "w1": rng.normal(0.0, 0.02, size=(c, 2 * c)),
            "b1": np.zeros(2 * c),
            "w2": rng.normal(0.0, 0.02, size=(2 * c, c)),
            "b2": np.zeros(c),
        },
    }


def init_weights(seed: int) -> dict:
    """Full seeded parameter set. One shared block per SWTBS branch;
    distinct blocks per SWTP stage. Biases start at zero."""
    rng = np.random.default_rng(seed)
    mlp1 = _linear(rng, 3, CHANNELS)
    mlp2 = _linear(rng, CHANNELS, CHANNELS)
    weights = {
        "patch_embed": _linear(rng, 3, CHANNELS),
        "center_mlp": {"w1": mlp1["w"], "b1": mlp1["b"], "w2": mlp2["w"], "b2": mlp2["b"]},
        "center_block": _block(rng, CHANNELS),
        "swtp": [
            {
                "blk_a": _block(rng, CHANNELS),
                "blk_b": _block(rng, CHANNELS),
                "merge": _linear(rng, 2 * CHANNELS, CHANNELS),
            }
            for _ in range(SWTP_STAGES)
        ],
        "fuse_proj": _linear(rng, 2 * CHANNELS, CHANNELS),
        "fusion_block": _block(rng, CHANNELS),
        "head": {
            "w1": rng.normal(0.0, 0.02, size=(CHANNELS, CHANNELS)),
            "b1": np.zeros(CHANNELS),
            "w2": rng.normal(0.0, 0.02, size=(CHANNELS, 7)),
            "b2": np.zeros(7),
        },
    }
    return weights


# ------------------------------------------------------------- full model

def predict_transforms(
    tpi: ToothPointImage, centers: np.ndarray, weights: dict
) -> dict[int, RigidTransform]:
    """Per-tooth rigid corrections for the present teeth.

    Inputs are in mm; they are normalized internally (shift by the
    mouth center of present teeth, divide by the case scale). The head
    emits 4 quaternion + 3 translation values per row; quaternions are
    normalized (w >= 0), translations rescaled to mm, and each pivot is
    the tooth's center. Absent rows come out as identity internally and
    are omitted from the returned map.
    """
    presence = np.asarray(tpi.presence, dtype=bool)
    if not presence.any():
        return {}
    mouth = centers[presence].mean(axis=0)
    data = np.zeros_like(tpi.data)
    data[presence] = (tpi.data[presence] - mouth) / NORM_SCALE_MM
    centers_n = np.zeros_like(centers)
    centers_n[presence] = (centers[presence] - mouth) / NORM_SCALE_MM

    grid = data @ weights["patch_embed"]["w"] + weights["patch_embed"]["b"]
    grid[~presence] = 0.0
    f_t = swtp_forward(grid, weights, presence)
    f_c = swtbs_forward(center_encoder(centers_n, weights), weights["center_block"], presence)
    fused = (
        np.concatenate([f_c, f_t], axis=1) @ weights["fuse_proj"]["w"]
        + weights["fuse_proj"]["b"]
    )
    fused[~presence] = 0.0
    fused = swtbs_forward(fused, weights["fusion_block"], presence)
    h = _gelu(fused @ weights["head"]["w1"] + weights["head"]["b1"])
    raw = h @ weights["head"]["w2"] + weights["head"]["b2"]

    out: dict[int, RigidTransform] = {}
    for row in np.flatnonzero(presence):
        q = raw[row, :4]
        if np.linalg.norm(q) < 1e-12:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        out[int(row) + 1] = RigidTransform(
            rotation=quat_normalize(q),
            translation=raw[row, 4:] * NORM_SCALE_MM,
            pivot=centers[row],
        )
    return out


def predict_case(case: Case, weights: dict, ordering: str = "arch_line", seed: int = 0) -> Case:
    """One forward pass applied back onto the case geometry."""
    tpi = build_tooth_point_image(case, ordering=ordering, seed=seed)
    transforms = predict_transforms(tpi, tooth_centers(case), weights)
    moved_only = {tid: t for tid, t in transforms.items() if case.tooth(tid).moved}
    return tooth_assembler(case, moved_only)
