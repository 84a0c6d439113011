"""Property tests: the gpc decoders on random small codes and patterns."""

import random

from hypothesis import given, settings, strategies as st

from gpcodes import gpc
from gpcodes.fields import field_with_order
from gpcodes.gpc import (ErasureProfile, GpcParams, UncorrectableError,
                         decodable_profile, decode_iterative, decode_rows,
                         encode, erase_positions, full_parity_matrix)
from gpcodes.oracle import correctable, random_decodable_pattern

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             derandomize=True, database=None)


@st.composite
def gpc_params(draw):
    """Any valid code with m <= 5, n <= 6 and at most 3 levels."""
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, min(3, n - 1)))
    m = draw(st.integers(t, 5))
    cuts = sorted(draw(st.permutations(range(1, m)))[:t - 1])
    s = tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))
    u = tuple(sorted(draw(st.permutations(range(1, n)))[:t]))
    # 0 <= m - k < s[-1]; simplest draw: the most all-parity rows
    k = m - s[-1] + 1 + draw(st.integers(0, s[-1] - 1))
    params = GpcParams(m, n, k, s, u, field_with_order(max(m, n)))
    assert params.violations() == []
    return params


def _codeword_and_pattern(params, seed):
    rng = random.Random(seed)
    word = encode([rng.randrange(1 << params.field.w)
                   for _ in range(params.dimension())], params)
    if rng.random() < 0.5:
        pattern = random_decodable_pattern(params, rng)
    else:
        cells = [(r, c) for r in range(params.m) for c in range(params.n)]
        pattern = set(rng.sample(cells, rng.randint(1, len(cells))))
    return rng, word, pattern


@PROPERTY_SETTINGS
@given(gpc_params(), st.integers(0, 2**32 - 1))
def test_decoders_on_clean_codewords(params, seed):
    _, word, pattern = _codeword_and_pattern(params, seed)
    damaged = erase_positions(word, pattern)
    out = decode_iterative(damaged, params)
    for r in range(params.m):
        for c in range(params.n):
            assert out.erased[r][c] or out.values[r][c] == word.values[r][c]
    if not out.erasure_count:
        assert correctable([r * params.n + c for r, c in pattern],
                           full_parity_matrix(params))
    if decodable_profile(ErasureProfile.from_array(damaged), params):
        assert decode_rows(damaged, params) == word


@PROPERTY_SETTINGS
@given(gpc_params(), st.integers(0, 2**32 - 1))
def test_contradictions_name_their_cells(params, seed):
    rng, word, pattern = _codeword_and_pattern(params, seed)
    survivors = [(r, c) for r in range(params.m) for c in range(params.n)
                 if (r, c) not in pattern]
    if not survivors:
        return
    damaged = erase_positions(word, pattern)
    r, c = rng.choice(survivors)
    damaged.fill(r, c, damaged.values[r][c] ^ rng.randrange(1, 1 << params.field.w))
    for decoder in (decode_rows, decode_iterative):
        try:
            decoder(damaged, params)
        except UncorrectableError as exc:
            assert exc.remaining and exc.remaining <= set(pattern)


# Each example compiles its code, so fewer examples keep Tier-1 fast.
@settings(PROPERTY_SETTINGS, max_examples=50)
@given(gpc_params(), st.integers(0, 2**32 - 1))
def test_compiled_encoder_matches_scalar(params, seed):
    rng = random.Random(seed)
    dim = params.dimension()
    compiled = gpc._compile_encoder(params, dim)
    for _ in range(3):
        data = [rng.randrange(1 << params.field.w) for _ in range(dim)]
        assert compiled.apply(data) == gpc._scalar_encode(
            data, params, params.parity_positions(),
            gpc._level_checks(params, params.t)).flatten()
