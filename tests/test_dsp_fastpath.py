"""Golden tests for the block-cycle fast paths.

The table-driven G.711 codecs, the int32 mixer and the gain tables are
pure optimizations: every test here pins them byte-for-byte (sample-for-
sample) to the reference implementations they replaced, across the
whole input domain and at the awkward edges (saturation, out-of-range
inputs, non-contiguous arrays).
"""

import numpy as np
import pytest

from repro.dsp import encodings
from repro.dsp.encodings import (
    ALAW_DECODE_TABLE,
    ALAW_ENCODE_TABLE,
    MULAW_DECODE_TABLE,
    MULAW_ENCODE_TABLE,
    alaw_decode,
    alaw_decode_reference,
    alaw_encode,
    alaw_encode_reference,
    mulaw_decode,
    mulaw_decode_reference,
    mulaw_encode,
    mulaw_encode_reference,
)
from repro.dsp import mixing
from repro.dsp.mixing import apply_gain, mix

from tests.mix_oracle import apply_gain_reference, mix_reference

FULL_INT16 = np.arange(-32768, 32768, dtype=np.int32).astype(np.int16)
ALL_CODES = bytes(range(256))


class TestCodecTablesMatchReference:
    def test_mulaw_encode_full_int16_domain(self):
        assert mulaw_encode(FULL_INT16) \
            == mulaw_encode_reference(FULL_INT16)

    def test_alaw_encode_full_int16_domain(self):
        assert alaw_encode(FULL_INT16) == alaw_encode_reference(FULL_INT16)

    def test_mulaw_decode_all_code_points(self):
        assert np.array_equal(mulaw_decode(ALL_CODES),
                              mulaw_decode_reference(ALL_CODES))

    def test_alaw_decode_all_code_points(self):
        assert np.array_equal(alaw_decode(ALL_CODES),
                              alaw_decode_reference(ALL_CODES))

    def test_round_trip_matches_reference_round_trip(self):
        for fast_enc, fast_dec, ref_enc, ref_dec in (
                (mulaw_encode, mulaw_decode,
                 mulaw_encode_reference, mulaw_decode_reference),
                (alaw_encode, alaw_decode,
                 alaw_encode_reference, alaw_decode_reference)):
            fast = fast_dec(fast_enc(FULL_INT16))
            reference = ref_dec(ref_enc(FULL_INT16))
            assert np.array_equal(fast, reference)

    def test_out_of_range_inputs_clip_like_reference(self):
        # The reference encoders accept any int array and clip magnitude;
        # the table path must not wrap these through an int16 cast.
        wild = np.array([-70000, -40000, -32769, -32768, -32635, -1, 0,
                         1, 32635, 32767, 32768, 40000, 70000],
                        dtype=np.int64)
        assert mulaw_encode(wild) == mulaw_encode_reference(wild)
        assert alaw_encode(wild) == alaw_encode_reference(wild)

    def test_python_list_input(self):
        samples = [0, 1, -1, 1000, -1000, 32767, -32768]
        assert mulaw_encode(samples) == mulaw_encode_reference(
            np.asarray(samples))
        assert alaw_encode(samples) == alaw_encode_reference(
            np.asarray(samples))

    def test_non_contiguous_input(self):
        strided = FULL_INT16[::7]
        assert mulaw_encode(strided) == mulaw_encode_reference(strided)
        assert alaw_encode(strided) == alaw_encode_reference(strided)

    def test_tables_have_expected_shapes(self):
        assert MULAW_DECODE_TABLE.shape == (256,)
        assert ALAW_DECODE_TABLE.shape == (256,)
        assert MULAW_ENCODE_TABLE.shape == (65536,)
        assert ALAW_ENCODE_TABLE.shape == (65536,)

    def test_tables_are_frozen(self):
        for table in (MULAW_DECODE_TABLE, ALAW_DECODE_TABLE,
                      MULAW_ENCODE_TABLE, ALAW_ENCODE_TABLE):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_dispatch_unchanged(self):
        from repro.protocol.types import ALAW_8K, MULAW_8K, PCM16_8K

        tone = (np.sin(np.linspace(0, 50, 4000)) * 20000).astype(np.int16)
        for sound_type in (MULAW_8K, ALAW_8K, PCM16_8K):
            data = encodings.encode(tone, sound_type)
            assert isinstance(data, bytes)
            decoded = encodings.decode(data, sound_type)
            assert decoded.dtype == np.int16
            assert len(decoded) == len(tone)


class TestMixFastPathMatchesReference:
    def test_randomized_blocks_no_gains(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            count = int(rng.integers(1, 6))
            blocks = [rng.integers(-32768, 32768,
                                   size=int(rng.integers(1, 400)),
                                   dtype=np.int16)
                      for _ in range(count)]
            assert np.array_equal(mix(blocks), mix_reference(blocks))

    def test_randomized_blocks_with_gains(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            count = int(rng.integers(1, 5))
            blocks = [rng.integers(-32768, 32768,
                                   size=int(rng.integers(1, 300)),
                                   dtype=np.int16)
                      for _ in range(count)]
            gains = [float(gain) for gain in rng.uniform(0.0, 2.0, count)]
            assert np.array_equal(mix(blocks, gains=gains),
                                  mix_reference(blocks, gains=gains))

    def test_saturation_edges(self):
        top = np.full(64, 32767, dtype=np.int16)
        bottom = np.full(64, -32768, dtype=np.int16)
        for blocks in ([top, top], [bottom, bottom], [top, top, top, top],
                       [bottom, bottom, bottom], [top, bottom]):
            assert np.array_equal(mix(blocks), mix_reference(blocks))

    def test_unity_gains_take_fast_path_result(self):
        blocks = [np.full(10, 1000, dtype=np.int16),
                  np.full(10, 2000, dtype=np.int16)]
        assert np.array_equal(mix(blocks, gains=[1.0, 1.0]),
                              mix_reference(blocks, gains=[1.0, 1.0]))

    def test_mixed_lengths_and_explicit_length(self):
        blocks = [np.full(5, 100, dtype=np.int16),
                  np.full(9, 200, dtype=np.int16)]
        for length in (None, 3, 9, 12):
            assert np.array_equal(mix(blocks, length=length),
                                  mix_reference(blocks, length=length))

    def test_non_int16_inputs_still_work(self):
        # Python lists and wide ints fall back to the float64 path.
        blocks = [[40000, -40000, 0], np.array([1, 2, 3], dtype=np.int64)]
        assert np.array_equal(mix(blocks), mix_reference(blocks))

    def test_empty_inputs(self):
        assert len(mix([])) == 0
        assert np.array_equal(mix([np.array([], dtype=np.int16)]),
                              mix_reference([np.array([], dtype=np.int16)]))

    def test_scratch_buffer_reuse_does_not_leak_between_calls(self):
        # Two calls of different lengths: the second must not see the
        # first call's samples through the reused accumulator.
        first = mix([np.full(100, 5000, dtype=np.int16)])
        assert np.all(first == 5000)
        second = mix([np.zeros(50, dtype=np.int16)])
        assert np.all(second == 0)
        third = mix([np.full(80, -7, dtype=np.int16)], gains=[2.0])
        assert np.all(third == -14)

    def test_result_is_int16(self):
        blocks = [np.full(4, 30000, dtype=np.int16),
                  np.full(4, 30000, dtype=np.int16)]
        result = mix(blocks)
        assert result.dtype == np.int16
        assert np.all(result == 32767)


#: Below, at and above unity; halves that round to even; 0.01 and 100
#: at the far ends; 0.6 and 2.55 not exact in binary.
GAINS = (0.0, 0.01, 0.3, 0.5, 0.6, 0.75, 0.8, 0.9, 1.25, 1.4, 1.5, 1.6,
         2.55, 100.0)


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty gain-table cache with no uses counted."""
    monkeypatch.setattr(mixing, "_gain_tables", {})
    monkeypatch.setattr(mixing, "_gain_uses", {})
    return mixing._gain_tables


def _use(gain, times=None, samples=FULL_INT16[::251]):
    """Apply ``gain`` ``times`` times (enough to earn a table by
    default), checking every result against the oracle."""
    for _ in range(mixing._USES_TO_BUILD if times is None else times):
        assert np.array_equal(apply_gain(samples, gain),
                              apply_gain_reference(samples, gain))


class TestGainTablesMatchReference:
    @pytest.mark.parametrize("gain", GAINS)
    def test_full_int16_domain(self, gain, fresh_tables):
        # The float path first, then the table the gain earns.
        for use in range(mixing._USES_TO_BUILD + 1):
            assert (gain in fresh_tables) == (use >= mixing._USES_TO_BUILD)
            gained = apply_gain(FULL_INT16, gain)
            assert gained.dtype == np.int16
            assert np.array_equal(gained,
                                  apply_gain_reference(FULL_INT16, gain))
        assert np.array_equal(fresh_tables[gain],
                              apply_gain_reference(
                                  mixing._INT16_BY_PATTERN, gain))

    def test_non_contiguous_and_matrix_input(self, fresh_tables):
        strided = FULL_INT16[::7]
        matrix = FULL_INT16.reshape(256, 256)[:, ::3]
        for _ in range(mixing._USES_TO_BUILD + 1):
            assert np.array_equal(apply_gain(strided, 0.6),
                                  apply_gain_reference(strided, 0.6))
            assert np.array_equal(apply_gain(matrix, 1.4),
                                  apply_gain_reference(matrix, 1.4))
        assert set(fresh_tables) == {0.6, 1.4}

    def test_non_int16_input_takes_float_path(self, fresh_tables):
        wide = np.array([40000, -40000, 3, -3], dtype=np.int64)
        for _ in range(mixing._USES_TO_BUILD + 1):
            assert np.array_equal(apply_gain(wide, 0.5),
                                  apply_gain_reference(wide, 0.5))
            assert np.array_equal(apply_gain([1000, -7], 1.5),
                                  apply_gain_reference([1000, -7], 1.5))
        assert fresh_tables == {}

    def test_result_is_fresh(self, fresh_tables):
        samples = np.arange(-5, 5, dtype=np.int16)
        _use(2.0, samples=samples)
        assert 2.0 in fresh_tables
        gained = apply_gain(samples, 2.0)
        gained[:] = 0
        assert np.array_equal(apply_gain(samples, 2.0), samples * 2)


class TestGainTableCache:
    def test_passing_gains_build_no_table(self, fresh_tables):
        """A fade: 1,000 gains, each used fewer times than a table
        costs, take the float path and leave the use counts bounded."""
        for step in range(1000):
            _use(0.001 * (step + 1) + 0.0001, times=3)
            assert len(mixing._gain_uses) <= mixing._COUNTED_MAX + 1
        assert fresh_tables == {}

    def test_table_cache_stays_at_its_bound(self, fresh_tables):
        built = []
        for step in range(1000):
            gain = 0.001 * (step + 1) + 0.0001
            _use(gain)
            built.append(gain in fresh_tables)
            assert len(fresh_tables) <= mixing._GAIN_TABLES_MAX
        # Each gain passes once, so the cache turns over to newer ones.
        assert sum(built) > 900

    def test_busy_tables_are_not_rebuilt(self, fresh_tables, monkeypatch):
        """More gains in steady use than the cache holds: the first
        tables stay, the rest keep the float path, and no table is
        built twice."""
        builds = []
        build = mixing.apply_gain_float

        def counted(samples, gain):
            if samples is mixing._INT16_BY_PATTERN:
                builds.append(gain)
            return build(samples, gain)

        monkeypatch.setattr(mixing, "apply_gain_float", counted)
        gains = [0.5 + 0.01 * index
                 for index in range(mixing._GAIN_TABLES_MAX + 8)]
        for _ in range(4 * mixing._USES_TO_BUILD):
            for gain in gains:
                _use(gain, times=1)
        assert sorted(builds) == gains[:mixing._GAIN_TABLES_MAX]
        assert set(fresh_tables) == set(builds)

    def test_unused_tables_make_room(self, fresh_tables):
        old = [0.2 + 0.01 * index for index in range(mixing._GAIN_TABLES_MAX)]
        for gain in old:
            _use(gain)
        assert set(fresh_tables) == set(old)
        new = [2.0 + 0.01 * index for index in range(4)]
        for _ in range(2):
            for gain in new:
                _use(gain)
        assert set(new) <= set(fresh_tables)
        assert len(fresh_tables) <= mixing._GAIN_TABLES_MAX
