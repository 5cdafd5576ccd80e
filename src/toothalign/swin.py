"""Forward-only reference of the alignment network: a point-cloud
branch with shifted-window attention over a 32-row tooth grid, a
center-feature branch of shared blocks, fusion, and a 7-parameter
rigid-transform head.

Deterministic given (weights, input). Weights come seeded and
untrained: this module validates shapes, window mechanics, weight
sharing, and masking behavior, not clinical accuracy.

Grid conventions: the tooth grid has one row per tooth slot (SLOTS =
32) and a 1D token sequence one token per slot; every feature has
CHANNELS channels split over HEADS attention heads. Attention windows
are WINDOW x WINDOW tiles of the grid (WINDOW tokens of a sequence),
and a shifted block rolls its input by SHIFT along every windowed axis
first (Swin, Liu et al. 2021). Merging only ever halves cols.

An absent tooth changes no other tooth's output. The point branch
gathers the present rows once and runs every block, merge and the
final pool on them alone: a 2D window holds the present rows of one
band of 8 slots, so an absent tooth is never normed, projected or
masked. The center and fusion branches take the masked path over all
32 tokens: an absent token serves as no key and leaves every block
unchanged. With zero biases the rows of absent teeth therefore come
out exactly zero.

A 2D block runs on one chunk of at most 8 windows per row at a time,
so its temporaries stay small. Neither skipping work nor chunking
moves a bit: the tests hold the network to a plain full-grid oracle,
bit for bit, and _grid_block says why its chunks of present-row
windows give the same bits as the full grid.

The GELU's erf is a numpy port of cephes' erf (see _erf), which equals
scipy.special.erf bit for bit, so the module runs on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .case import (
    NORM_SCALE_MM,
    Case,
    ToothPointImage,
    build_tooth_point_image,
    tooth_assembler,
    tooth_centers,
)
from .errors import BadHeadCount, IndivisibleGrid, InvalidArgument, OddColumns
from .geometry import RigidTransform, quat_normalize

CHANNELS = 32
SLOTS = 32  # tooth slots: the rows of every grid
HEADS = 4
WINDOW = 8
SHIFT = 4
SWTP_STAGES = 4
NORM_EPS = 1e-5  # added to the layer-norm variance
_CHUNK_COLS = 64  # columns of one pass of the 2D block: 8 windows per row


# ------------------------------------------------------------- primitives

# cephes erf and erfc (Moshier 1989, ndtr.c), the erf scipy.special runs,
# in doubles; U and Q carry the leading 1.0 that cephes' p1evl implies.
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949)
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
      526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055, 1823.9091668790973,
      2246.3376081871097, 1656.6630919416134, 557.5353408177277)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    # cephes polevl, and p1evl when coef[0] is 1.0: Horner's rule
    y = x + coef[1] if coef[0] == 1.0 else coef[0] * x + coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes erf of an array, bit for bit: x T(x^2) / U(x^2) for
    |x| <= 1, else 1 - erfc(|x|) signed as x, where erfc(a) = exp(-a * a)
    P(a) / Q(a) with libm's exp, whose last ulp np.exp's differs from.
    From 8 on, where cephes' erfc turns to other coefficients, erfc is
    below 2**-96 and 1 - erfc rounds to 1, so a stops at 8. NaN stays
    NaN, -0 stays -0, and no finite input raises a floating-point
    warning."""
    x = np.asarray(x, dtype=float)
    inside = x.min(initial=0.0) >= -1.0 and x.max(initial=0.0) <= 1.0  # False with a NaN
    m = x if inside else np.clip(x, -1.0, 1.0)
    z = m * m
    y = _polevl(z, _T)
    y *= m
    y /= _polevl(z, _U)
    if not inside:
        tail = ~(np.abs(x) <= 1.0)  # |x| > 1, or NaN
        t = x[tail]
        a = np.minimum(np.abs(t), 8.0)
        erfc = np.array([math.exp(v) for v in (-a * a).tolist()]) * _polevl(a, _P) / _polevl(a, _Q)
        y[tail] = np.copysign(1.0 - erfc, t)
    return y


def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1.0 + erf(x / sqrt(2))) in the same operation order
    e = _erf(x / np.sqrt(2.0))
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


def window_attention(windows: np.ndarray, weights: dict, allow: np.ndarray | None) -> np.ndarray:
    """Multi-head scaled dot-product attention within each window.

    ``windows`` is (nwin, L, C) (flatten tile dims first). ``allow``
    holds the permitted (query, key) pairs, (nwin, L, L) or one (L, L)
    for every window, or is None when every pair is permitted.
    Disallowed keys get zero attention weight; a query with no allowed
    key yields a zero row before the output projection, so its output
    is ``0 @ wo + bo``. Softmax rows over allowed keys sum to 1.

    The mask enters as an additive 0/-inf bias on the scores, and the
    softmax runs in place on the one scores buffer: exp(-inf) is
    already 0, so no second masking pass is needed. Without a mask the
    bias and the dead-row fix-ups are skipped, which moves no bit:
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

    # Separate Q, K and V projections, not one (C, 3C) GEMM: the fused
    # product is no faster here and OpenBLAS rounds it differently at
    # some widths.
    def project(name):
        y = windows @ weights["w" + name]
        y += weights["b" + name]
        return heads_first(y)

    q, k, v = project("q"), project("k"), project("v")
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= np.sqrt(dh)
    if allow is None:
        # every pair allowed: no -inf, every top finite, every denom >= 1
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
    else:
        scores += np.where(allow, 0.0, -np.inf)[..., None, :, :]
        top = scores.max(axis=-1, keepdims=True)
        # a query with no allowed key has top -inf; 0 keeps its exps 0, not NaN
        top[~np.isfinite(top)] = 0.0
        scores -= top
        np.exp(scores, out=scores)
        denom = scores.sum(axis=-1, keepdims=True)
        denom[denom == 0.0] = 1.0
        scores /= denom
    out = (scores @ v).transpose(0, 2, 1, 3).reshape(windows.shape) @ weights["wo"]
    out += weights["bo"]
    return out


def _mlp_residual(x: np.ndarray, weights: dict) -> np.ndarray:
    """The block's second half: x + MLP(norm(x)), cell by cell. Biases
    and the residual are added in place; a sum of two terms does not
    depend on their order."""
    mlp = weights["mlp"]
    hidden = layer_norm(x, weights["ln2"]) @ mlp["w1"]
    hidden += mlp["b1"]
    out = _gelu(hidden) @ mlp["w2"]
    out += mlp["b2"]
    out += x
    return out


def _sequence_block(seq: np.ndarray, weights: dict, shifted: bool, valid: np.ndarray) -> np.ndarray:
    # the masked path of the 1D branches: 32 tokens, one 8-token
    # block per window
    h = np.zeros_like(seq)
    h[valid] = layer_norm(seq[valid], weights["ln1"])
    if shifted:
        h = cyclic_shift(h, SHIFT)
    allow = window_allow_masks(seq.shape, shifted, valid)
    # a valid token is its own allowed key and an invalid token is
    # nobody's, so the diagonal is query validity: an invalid query
    # gets no key and a zero attention row
    allow &= np.diagonal(allow, axis1=1, axis2=2)[:, :, None]
    att = window_attention(window_partition(h), weights["attn"], allow)
    att = window_reverse(att, seq.shape)
    if shifted:
        att = cyclic_shift(att, -SHIFT)
    out = seq.copy()
    out[valid] = _mlp_residual(seq[valid] + att[valid], weights)
    return out


def _window_rows(presence: np.ndarray, shifted: bool) -> list[np.ndarray]:
    """The rows of a present-row grid that share 2D windows.

    Windows span WINDOW consecutive slots, rolled by SHIFT when
    shifted; the wrapped band of a shifted layout (the last SHIFT slots
    beside the first SHIFT) is two groups, since its regions never
    attend to each other. Within a group rows keep slot order. Groups
    of the same size come as one (groups, rows) index array.
    """
    slots = np.flatnonzero(presence)
    n = presence.size
    if shifted:
        rolled = (slots - SHIFT) % n
        band = rolled // WINDOW
        band[rolled >= n - SHIFT] = n // WINDOW
    else:
        band = slots // WINDOW
    by_size: dict[int, list] = {}
    for b in range(n // WINDOW + 1):
        rows = np.flatnonzero(band == b)
        if rows.size:
            by_size.setdefault(rows.size, []).append(rows)
    return [np.stack(groups) for groups in by_size.values()]


def _grid_block(grid: np.ndarray, weights: dict, shifted: bool, presence: np.ndarray) -> np.ndarray:
    """The 2D block on the (P, W, C) grid of the present rows.

    Each window holds the present rows of one band of WINDOW slots, so
    an absent tooth is never normed, projected or masked. This gives
    the bits of the full 32-row grid, where an absent row is an invalid
    key of every window:

    - A window row is WINDOW = 8 tokens, so every absent row, and every
      row of the other region of a wrapped band, is a whole aligned
      8-token block of keys, and its exps are exact +0. numpy sums a
      softmax row of at most 128 with eight accumulators, token i going
      to accumulator i mod 8, so dropping such a block removes one +0
      from each accumulator and leaves every other term where it was;
      in ``probs @ v`` the dropped keys are exact-zero terms of the
      K-loop. The max does not depend on order.
    - Every GEMM runs on a multiple of 8 rows. Under OpenBLAS such a
      row subset rounds each row exactly as the full product does,
      while other sizes can take other kernels (a single row goes to
      gemv) and move the last bits.

    Only the wrapped column window of a shifted block keeps the mask:
    its two column regions (4 columns each) share every 8-token block.

    The whole block runs on one chunk at a time: a row group's windows
    over at most _CHUNK_COLS columns, or its wrapped column window.
    Norms and the MLP work cell by cell, windows never interact and a
    chunk is whole windows, so no bit moves; only the temporaries shrink.
    """
    rows, w = grid.shape[:2]
    if presence.size % WINDOW or w % WINDOW:
        raise IndivisibleGrid(f"{presence.size}x{w} grid not divisible by window {WINDOW}")
    if rows != np.count_nonzero(presence):
        raise InvalidArgument(f"grid has {rows} rows for {np.count_nonzero(presence)} present slots")
    out = np.empty_like(grid)

    def block(cells, allow=None):
        # the block on (groups, k, W', C) cells as W'/WINDOW * groups windows
        # of k * WINDOW tokens, row-major over each window's k rows, and back
        g, k, cols, c = cells.shape
        h = layer_norm(cells, weights["ln1"])
        tiles = h.reshape(g, k, cols // WINDOW, WINDOW, c).transpose(2, 0, 1, 3, 4)
        att = window_attention(tiles.reshape(-1, k * WINDOW, c), weights["attn"], allow)
        att = att.reshape(tiles.shape).transpose(1, 2, 0, 3, 4).reshape(cells.shape)
        att += cells
        return _mlp_residual(att, weights)

    # rolled by SHIFT: the inner windows start SHIFT columns in, the
    # last one joins the last SHIFT columns to the first SHIFT
    inner = range(SHIFT, w - SHIFT) if shifted else range(w)
    for rows in _window_rows(presence, shifted):
        for start in inner[::_CHUNK_COLS]:
            cols = slice(start, min(start + _CHUNK_COLS, inner.stop))
            out[rows, cols] = block(grid[rows, cols])
        if shifted:
            cells = np.concatenate([grid[rows, w - SHIFT :], grid[rows, :SHIFT]], axis=2)
            half = np.arange(cells.shape[1] * WINDOW) % WINDOW < SHIFT
            wrapped = block(cells, half[:, None] == half[None, :])
            out[rows, w - SHIFT :] = wrapped[:, :, :SHIFT]
            out[rows, :SHIFT] = wrapped[:, :, SHIFT:]
    return out


def swin_block(grid: np.ndarray, weights: dict, shifted: bool, presence: np.ndarray) -> np.ndarray:
    """Pre-norm transformer block with (shifted-)window attention.

    norm -> windowed attention -> residual, then norm -> MLP ->
    residual. ``presence`` marks the live tooth slots. A 1D sequence
    (n, C) holds every slot and takes the masked path: an absent token
    provides no key and leaves the block exactly as it entered. A 2D
    grid (P, W, C) holds the rows of the present slots only, in slot
    order, and comes back in the same shape; P other than the number of
    present slots raises InvalidArgument. The caller's ``grid`` is
    never written.
    """
    presence = np.asarray(presence, dtype=bool)
    if grid.ndim == 2:
        return _sequence_block(grid, weights, shifted, presence)
    return _grid_block(grid, weights, shifted, presence)


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

    ``presence`` marks the live tooth rows. The tower gathers them once
    and runs every stage on the present rows only; the pooled rows of
    absent teeth are zero. Pass return_trace=True to get the column
    count after entry and each stage.
    """
    presence = np.asarray(presence, dtype=bool)
    x = grid[presence]
    trace = [x.shape[1]]
    for stage in weights["swtp"]:
        x = swin_block(x, stage["blk_a"], False, presence)
        x = swin_block(x, stage["blk_b"], True, presence)
        x = column_merge(x, stage["merge"])
        trace.append(x.shape[1])
    pooled = np.zeros((presence.size, x.shape[2]))
    pooled[presence] = x.mean(axis=1)
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
