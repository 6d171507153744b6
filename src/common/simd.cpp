#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DELTACOLOR_HAVE_AVX2_PATH 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define DELTACOLOR_HAVE_NEON_PATH 1
#endif

namespace deltacolor::simd {

namespace {

// --- scalar reference kernels ----------------------------------------------
// These are the semantics. Every vector kernel below must agree bit-for-bit
// on every input; test_palette_set's SimdDispatch tests check it per level
// against forced scalar.

void andnot_scalar(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

int popcount_scalar(const std::uint64_t* w, std::size_t n) {
  int total = 0;
  for (std::size_t i = 0; i < n; ++i) total += __builtin_popcountll(w[i]);
  return total;
}

int popcount_and_scalar(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) {
  int total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += __builtin_popcountll(a[i] & b[i]);
  return total;
}

std::size_t first_nonzero_scalar(const std::uint64_t* w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (w[i] != 0) return i;
  return n;
}

std::size_t select_word_scalar(const std::uint64_t* w, std::size_t n,
                               int* k) {
  for (std::size_t i = 0; i < n; ++i) {
    const int pop = __builtin_popcountll(w[i]);
    if (*k < pop) return i;
    *k -= pop;
  }
  return n;
}

#if defined(DELTACOLOR_HAVE_AVX2_PATH)

// --- AVX2 kernels -----------------------------------------------------------
// 4 words per 256-bit vector, unaligned loads (palette words live in
// std::vector / arena storage; the arena aligns to 32 bytes but vectors only
// promise 16). Popcounts use the vpshufb nibble-LUT ("Mula") form reduced
// with vpsadbw: exact integer counts, no floating point, no reassociation.

__attribute__((target("avx2"))) inline __m256i popcount_epu64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  // Per-64-bit-lane byte sums.
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void andnot_avx2(std::uint64_t* dst,
                                                 const std::uint64_t* src,
                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i d0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s0, d0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_andnot_si256(s1, d1));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s, d));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

__attribute__((target("avx2"))) int popcount_avx2(const std::uint64_t* w,
                                                  std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, popcount_epu64(v));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int total = static_cast<int>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) total += __builtin_popcountll(w[i]);
  return total;
}

__attribute__((target("avx2"))) int popcount_and_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, popcount_epu64(_mm256_and_si256(va, vb)));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int total = static_cast<int>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) total += __builtin_popcountll(a[i] & b[i]);
  return total;
}

__attribute__((target("avx2"))) std::size_t first_nonzero_avx2(
    const std::uint64_t* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (!_mm256_testz_si256(v, v)) {
      for (std::size_t j = i;; ++j)
        if (w[j] != 0) return j;
    }
  }
  for (; i < n; ++i)
    if (w[i] != 0) return i;
  return n;
}

__attribute__((target("avx2"))) std::size_t select_word_avx2(
    const std::uint64_t* w, std::size_t n, int* k) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    alignas(32) std::uint64_t pops[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(pops), popcount_epu64(v));
    const int block =
        static_cast<int>(pops[0] + pops[1] + pops[2] + pops[3]);
    if (*k >= block) {
      *k -= block;
      continue;
    }
    for (std::size_t j = 0; j < 4; ++j) {
      const int pop = static_cast<int>(pops[j]);
      if (*k < pop) return i + j;
      *k -= pop;
    }
  }
  for (; i < n; ++i) {
    const int pop = __builtin_popcountll(w[i]);
    if (*k < pop) return i;
    *k -= pop;
  }
  return n;
}

#endif  // DELTACOLOR_HAVE_AVX2_PATH

#if defined(DELTACOLOR_HAVE_NEON_PATH)

// --- NEON kernels (aarch64) -------------------------------------------------
// 2 words per 128-bit vector; popcounts via vcntq_u8 + pairwise adds. NEON
// is mandatory on aarch64, so these compile unconditionally there.

void andnot_neon(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t d = vld1q_u64(dst + i);
    const uint64x2_t s = vld1q_u64(src + i);
    vst1q_u64(dst + i, vbicq_u64(d, s));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

inline std::uint64_t popcount_u64x2(uint64x2_t v) {
  const uint8x16_t cnt = vcntq_u8(vreinterpretq_u8_u64(v));
  return vaddvq_u8(cnt);
}

int popcount_neon(const std::uint64_t* w, std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) total += popcount_u64x2(vld1q_u64(w + i));
  for (; i < n; ++i)
    total += static_cast<std::uint64_t>(__builtin_popcountll(w[i]));
  return static_cast<int>(total);
}

int popcount_and_neon(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    total += popcount_u64x2(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  for (; i < n; ++i)
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  return static_cast<int>(total);
}

std::size_t first_nonzero_neon(const std::uint64_t* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(w + i);
    if (vmaxvq_u32(vreinterpretq_u32_u64(v)) != 0) {
      return w[i] != 0 ? i : i + 1;
    }
  }
  for (; i < n; ++i)
    if (w[i] != 0) return i;
  return n;
}

std::size_t select_word_neon(const std::uint64_t* w, std::size_t n, int* k) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int block =
        static_cast<int>(popcount_u64x2(vld1q_u64(w + i)));
    if (*k >= block) {
      *k -= block;
      continue;
    }
    const int pop0 = __builtin_popcountll(w[i]);
    if (*k < pop0) return i;
    *k -= pop0;
    return i + 1;
  }
  for (; i < n; ++i) {
    const int pop = __builtin_popcountll(w[i]);
    if (*k < pop) return i;
    *k -= pop;
  }
  return n;
}

#endif  // DELTACOLOR_HAVE_NEON_PATH

#if defined(DELTACOLOR_HAVE_AVX2_PATH)
const KernelTable kAvx2Table = {
    andnot_avx2,        popcount_avx2, popcount_and_avx2,
    first_nonzero_avx2, select_word_avx2,
    Level::kAvx2,       "avx2"};
#endif
#if defined(DELTACOLOR_HAVE_NEON_PATH)
const KernelTable kNeonTable = {
    andnot_neon,        popcount_neon, popcount_and_neon,
    first_nonzero_neon, select_word_neon,
    Level::kNeon,       "neon"};
#endif

const KernelTable* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &detail::kScalarTable;
    case Level::kAvx2:
#if defined(DELTACOLOR_HAVE_AVX2_PATH)
      return level_supported(Level::kAvx2) ? &kAvx2Table : nullptr;
#else
      return nullptr;
#endif
    case Level::kNeon:
#if defined(DELTACOLOR_HAVE_NEON_PATH)
      return &kNeonTable;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// Upgrades the constant-initialized scalar table to best_level() before
/// main() runs (palette calls during earlier static init stay on the
/// safe scalar path).
struct StartupResolver {
  StartupResolver() {
    detail::g_active.store(table_for(best_level()),
                           std::memory_order_relaxed);
  }
} g_startup_resolver;

}  // namespace

namespace detail {
const KernelTable kScalarTable = {
    andnot_scalar,        popcount_scalar, popcount_and_scalar,
    first_nonzero_scalar, select_word_scalar,
    Level::kScalar,       "scalar"};
std::atomic<const KernelTable*> g_active{&kScalarTable};
}  // namespace detail

Level active_level() { return detail::active().level; }

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "?";
}

bool level_supported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(DELTACOLOR_HAVE_AVX2_PATH)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kNeon:
#if defined(DELTACOLOR_HAVE_NEON_PATH)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Level best_level() {
  if (level_supported(Level::kAvx2)) return Level::kAvx2;
  if (level_supported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

bool force_level(Level level) {
  const KernelTable* t = table_for(level);
  if (t == nullptr) return false;
  detail::g_active.store(t, std::memory_order_relaxed);
  return true;
}

void reset_level() {
  detail::g_active.store(table_for(best_level()), std::memory_order_relaxed);
}

}  // namespace deltacolor::simd
