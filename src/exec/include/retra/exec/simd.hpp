// Portable vector kernels for the engines' packed-value sweeps.
//
// The per-level sweeps — magnitude seeding, zero-fill, and the seed scan
// over the packed std::int16_t value words — are pure compare/select
// loops, exactly the shape SIMD accelerates.  This layer wraps them as
// three kernels with a scalar reference implementation and 128-bit
// (SSE2) / 256-bit (AVX2) specialisations:
//
//   * replace_matching       the zero-fill word sweep (compare, blend,
//                            count),
//   * collect_eq2            the packed seed scan (values == kUnknown
//                            && best == magnitude -> ascending indices),
//   * collect_seed_candidates the first magnitude's combined sweep
//                            (unknown && (cnt == 0 || best == mag)).
//
// Contract: every backend returns bit-identical results — the same
// counts and the same ascending index sequences — as the scalar
// reference, for any alignment (all loads are unaligned) and any length
// (vector body plus scalar tail).  Callers therefore never observe
// which backend ran; the engines' bit-identity guarantees are untouched.
//
// Backend selection: the widest backend the build *and* the host support
// is picked at startup (compile-time scalar fallback via the RETRA_SIMD
// CMake option, runtime dispatch via cpuid on x86-64); tests and benches
// can pin a narrower backend with set_active().  Raw intrinsics are
// confined to src/exec/src/simd.cpp — the retra_analyze `simd-containment`
// rule keeps them out of the rest of the tree.
#pragma once

#include <cstddef>
#include <cstdint>

namespace retra::exec {

/// Hints the prefetcher that `address` will be read soon.  The engines
/// issue these a fixed distance ahead of the drain wave's random
/// values_ reads and the merge loop's update applies; a no-op on
/// compilers without the builtin.
inline void prefetch_read(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

namespace simd {

/// Kernel implementations, narrowest to widest.  kSse2/kAvx2 exist only
/// on x86-64 builds with RETRA_SIMD on; elsewhere the scalar reference
/// is the sole backend.
enum class Backend : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

const char* backend_name(Backend backend);

/// std::int16_t lanes one operation of `backend` processes (1 / 8 / 16).
int lanes(Backend backend);

/// The widest backend this build and this host both support.
Backend widest_available();

/// The backend the kernels dispatch to; defaults to widest_available().
Backend active();
int active_lanes();

/// Pins the dispatch backend (clamped to widest_available()); returns
/// what is now active.  For tests and benches comparing backends.
Backend set_active(Backend backend);

/// Positions one engine sweep tile spans; sized so a tile's index buffer
/// (collect_* output) lives comfortably on a worker stack while the
/// input words still amortise the dispatch.
inline constexpr std::size_t kSweepTile = 4096;

/// Replaces every element of data[0, n) equal to `match` with
/// `replacement`; returns how many were replaced.  The zero-fill sweep.
std::uint64_t replace_matching(std::int16_t* data, std::size_t n,
                               std::int16_t match,
                               std::int16_t replacement);

/// Writes the ascending indices i in [0, n) with a[i] == va &&
/// b[i] == vb into `out` (capacity >= n, indices fit 32 bits); returns
/// how many matched.  The packed seed scan.
std::size_t collect_eq2(const std::int16_t* a, std::int16_t va,
                        const std::int16_t* b, std::int16_t vb,
                        std::size_t n, std::uint32_t* out);

/// Writes the ascending indices i in [0, n) with values[i] == unknown
/// && (cnt[i] == 0 || best[i] == mag) into `out` (capacity >= n);
/// returns how many matched.  The first magnitude's combined sweep,
/// which also finalises positions whose options were all exits.
std::size_t collect_seed_candidates(const std::int16_t* values,
                                    std::int16_t unknown,
                                    const std::uint16_t* cnt,
                                    const std::int16_t* best,
                                    std::int16_t mag, std::size_t n,
                                    std::uint32_t* out);

}  // namespace simd
}  // namespace retra::exec
