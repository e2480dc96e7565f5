// Sweep-kernel backends.  The only file in the tree allowed to touch raw
// vector intrinsics (retra_analyze rule `simd-containment`); everything else
// goes through the retra/exec/simd.hpp wrappers.
//
// Each kernel has a scalar reference implementation plus SSE2 and AVX2
// specialisations compiled with per-function target attributes, so one
// binary carries every backend and dispatches on the host's cpuid at
// startup.  All vector loads/stores are unaligned and every kernel
// finishes with the scalar tail, so results are bit-identical to the
// reference for any pointer alignment and length.
//
// The match masks come from _mm_movemask_epi8: a matching std::int16_t
// lane contributes two adjacent set bits, so lane indices are bit / 2
// and a lane's bits clear with two `m &= m - 1` steps.

#include "retra/exec/simd.hpp"

#include <atomic>

#if defined(__x86_64__) && RETRA_SIMD_ENABLED
#define RETRA_SIMD_X86 1
#include <immintrin.h>
#else
#define RETRA_SIMD_X86 0
#endif

namespace retra::exec::simd {

namespace {

// ---- scalar reference ------------------------------------------------

std::uint64_t replace_scalar(std::int16_t* data, std::size_t n,
                             std::int16_t match, std::int16_t replacement) {
  std::uint64_t replaced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] == match) {
      data[i] = replacement;
      ++replaced;
    }
  }
  return replaced;
}

std::size_t collect_eq2_scalar(const std::int16_t* a, std::int16_t va,
                               const std::int16_t* b, std::int16_t vb,
                               std::size_t begin, std::size_t end,
                               std::uint32_t* out, std::size_t k) {
  for (std::size_t i = begin; i < end; ++i) {
    if (a[i] == va && b[i] == vb) out[k++] = static_cast<std::uint32_t>(i);
  }
  return k;
}

std::size_t collect_seed_scalar(const std::int16_t* values,
                                std::int16_t unknown,
                                const std::uint16_t* cnt,
                                const std::int16_t* best, std::int16_t mag,
                                std::size_t begin, std::size_t end,
                                std::uint32_t* out, std::size_t k) {
  for (std::size_t i = begin; i < end; ++i) {
    if (values[i] == unknown && (cnt[i] == 0 || best[i] == mag)) {
      out[k++] = static_cast<std::uint32_t>(i);
    }
  }
  return k;
}

#if RETRA_SIMD_X86

// ---- SSE2 (x86-64 baseline, 8 lanes) ---------------------------------

std::uint64_t replace_sse2(std::int16_t* data, std::size_t n,
                           std::int16_t match, std::int16_t replacement) {
  const __m128i vmatch = _mm_set1_epi16(match);
  const __m128i vrepl = _mm_set1_epi16(replacement);
  std::uint64_t replaced = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i* const p = reinterpret_cast<__m128i*>(data + i);
    const __m128i v = _mm_loadu_si128(p);
    const __m128i eq = _mm_cmpeq_epi16(v, vmatch);
    const auto mask = static_cast<unsigned>(_mm_movemask_epi8(eq));
    if (mask == 0) continue;  // fast path: nothing unknown in this word
    const __m128i blended =
        _mm_or_si128(_mm_and_si128(eq, vrepl), _mm_andnot_si128(eq, v));
    _mm_storeu_si128(p, blended);
    replaced += static_cast<unsigned>(__builtin_popcount(mask)) / 2;
  }
  return replaced + replace_scalar(data + i, n - i, match, replacement);
}

std::size_t collect_eq2_sse2(const std::int16_t* a, std::int16_t va,
                             const std::int16_t* b, std::int16_t vb,
                             std::size_t n, std::uint32_t* out) {
  const __m128i wa = _mm_set1_epi16(va);
  const __m128i wb = _mm_set1_epi16(vb);
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i ea = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), wa);
    const __m128i eb = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), wb);
    auto mask =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_and_si128(ea, eb)));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      out[k++] = static_cast<std::uint32_t>(i + bit / 2);
      mask &= mask - 1;
      mask &= mask - 1;
    }
  }
  return collect_eq2_scalar(a, va, b, vb, i, n, out, k);
}

std::size_t collect_seed_sse2(const std::int16_t* values,
                              std::int16_t unknown,
                              const std::uint16_t* cnt,
                              const std::int16_t* best, std::int16_t mag,
                              std::size_t n, std::uint32_t* out) {
  const __m128i wunknown = _mm_set1_epi16(unknown);
  const __m128i wmag = _mm_set1_epi16(mag);
  const __m128i wzero = _mm_setzero_si128();
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i eu = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + i)),
        wunknown);
    const __m128i ec = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cnt + i)), wzero);
    const __m128i em = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(best + i)), wmag);
    auto mask = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_and_si128(eu, _mm_or_si128(ec, em))));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      out[k++] = static_cast<std::uint32_t>(i + bit / 2);
      mask &= mask - 1;
      mask &= mask - 1;
    }
  }
  return collect_seed_scalar(values, unknown, cnt, best, mag, i, n, out, k);
}

// ---- AVX2 (16 lanes, runtime-dispatched) -----------------------------

__attribute__((target("avx2"))) std::uint64_t replace_avx2(
    std::int16_t* data, std::size_t n, std::int16_t match,
    std::int16_t replacement) {
  const __m256i vmatch = _mm256_set1_epi16(match);
  const __m256i vrepl = _mm256_set1_epi16(replacement);
  std::uint64_t replaced = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i* const p = reinterpret_cast<__m256i*>(data + i);
    const __m256i v = _mm256_loadu_si256(p);
    const __m256i eq = _mm256_cmpeq_epi16(v, vmatch);
    const auto mask = static_cast<unsigned>(_mm256_movemask_epi8(eq));
    if (mask == 0) continue;
    _mm256_storeu_si256(p, _mm256_blendv_epi8(v, vrepl, eq));
    replaced += static_cast<unsigned>(__builtin_popcount(mask)) / 2;
  }
  return replaced + replace_scalar(data + i, n - i, match, replacement);
}

__attribute__((target("avx2"))) std::size_t collect_eq2_avx2(
    const std::int16_t* a, std::int16_t va, const std::int16_t* b,
    std::int16_t vb, std::size_t n, std::uint32_t* out) {
  const __m256i wa = _mm256_set1_epi16(va);
  const __m256i wb = _mm256_set1_epi16(vb);
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i ea = _mm256_cmpeq_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), wa);
    const __m256i eb = _mm256_cmpeq_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), wb);
    auto mask = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_and_si256(ea, eb)));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      out[k++] = static_cast<std::uint32_t>(i + bit / 2);
      mask &= mask - 1;
      mask &= mask - 1;
    }
  }
  return collect_eq2_scalar(a, va, b, vb, i, n, out, k);
}

__attribute__((target("avx2"))) std::size_t collect_seed_avx2(
    const std::int16_t* values, std::int16_t unknown,
    const std::uint16_t* cnt, const std::int16_t* best, std::int16_t mag,
    std::size_t n, std::uint32_t* out) {
  const __m256i wunknown = _mm256_set1_epi16(unknown);
  const __m256i wmag = _mm256_set1_epi16(mag);
  const __m256i wzero = _mm256_setzero_si256();
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i eu = _mm256_cmpeq_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        wunknown);
    const __m256i ec = _mm256_cmpeq_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cnt + i)),
        wzero);
    const __m256i em = _mm256_cmpeq_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(best + i)),
        wmag);
    auto mask = static_cast<unsigned>(_mm256_movemask_epi8(
        _mm256_and_si256(eu, _mm256_or_si256(ec, em))));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      out[k++] = static_cast<std::uint32_t>(i + bit / 2);
      mask &= mask - 1;
      mask &= mask - 1;
    }
  }
  return collect_seed_scalar(values, unknown, cnt, best, mag, i, n, out, k);
}

#endif  // RETRA_SIMD_X86

/// The dispatch state; relaxed atomics because set_active() is a test
/// hook called between runs, never concurrently with kernels.
std::atomic<int>& active_state() {
  static std::atomic<int> state{static_cast<int>(widest_available())};
  return state;
}

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

int lanes(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return 1;
    case Backend::kSse2:
      return 8;
    case Backend::kAvx2:
      return 16;
  }
  return 1;
}

Backend widest_available() {
#if RETRA_SIMD_X86
  static const Backend widest = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Backend::kAvx2 : Backend::kSse2;
  }();
  return widest;
#else
  return Backend::kScalar;
#endif
}

Backend active() {
  return static_cast<Backend>(active_state().load(std::memory_order_relaxed));
}

int active_lanes() { return lanes(active()); }

Backend set_active(Backend backend) {
  const Backend widest = widest_available();
  if (static_cast<int>(backend) > static_cast<int>(widest)) backend = widest;
  active_state().store(static_cast<int>(backend),
                       std::memory_order_relaxed);
  return backend;
}

std::uint64_t replace_matching(std::int16_t* data, std::size_t n,
                               std::int16_t match,
                               std::int16_t replacement) {
  switch (active()) {
#if RETRA_SIMD_X86
    case Backend::kAvx2:
      return replace_avx2(data, n, match, replacement);
    case Backend::kSse2:
      return replace_sse2(data, n, match, replacement);
#endif
    default:
      return replace_scalar(data, n, match, replacement);
  }
}

std::size_t collect_eq2(const std::int16_t* a, std::int16_t va,
                        const std::int16_t* b, std::int16_t vb,
                        std::size_t n, std::uint32_t* out) {
  switch (active()) {
#if RETRA_SIMD_X86
    case Backend::kAvx2:
      return collect_eq2_avx2(a, va, b, vb, n, out);
    case Backend::kSse2:
      return collect_eq2_sse2(a, va, b, vb, n, out);
#endif
    default:
      return collect_eq2_scalar(a, va, b, vb, 0, n, out, 0);
  }
}

std::size_t collect_seed_candidates(const std::int16_t* values,
                                    std::int16_t unknown,
                                    const std::uint16_t* cnt,
                                    const std::int16_t* best,
                                    std::int16_t mag, std::size_t n,
                                    std::uint32_t* out) {
  switch (active()) {
#if RETRA_SIMD_X86
    case Backend::kAvx2:
      return collect_seed_avx2(values, unknown, cnt, best, mag, n, out);
    case Backend::kSse2:
      return collect_seed_sse2(values, unknown, cnt, best, mag, n, out);
#endif
    default:
      return collect_seed_scalar(values, unknown, cnt, best, mag, 0, n, out,
                                 0);
  }
}

}  // namespace retra::exec::simd
