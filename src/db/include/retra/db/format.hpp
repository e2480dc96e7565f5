// RTRADB on-disk format constants (docs/FORMAT.md is the byte-level
// reference; the format-doc analysis in tools/retra_analyze keeps the
// two in sync, both directions).
//
// Three little-endian formats share the 8-byte magic prefix:
//
//   RTRADB01 — raw values, narrowed to one byte when possible (read only);
//   RTRADB02 — offset-coded bit-packed levels stored verbatim (read only);
//   RTRADB03 — the one format written: bit-packed levels split into
//   fixed-size blocks, each block stored raw or compressed under a
//   per-block scheme chosen at save time, with a per-level block
//   directory so a point lookup decompresses exactly one block.
//
// Everything a reader must agree on — magics, header sanity bounds,
// block geometry limits, scheme tags and codec parameters — lives here
// so db_io, the block codecs, the serving layer and the analyzer all
// reference one definition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace retra::db {

/// File magics; exactly kMagicBytes bytes on disk, no terminator.
inline constexpr std::string_view kMagic01 = "RTRADB01";
inline constexpr std::string_view kMagic02 = "RTRADB02";
inline constexpr std::string_view kMagic03 = "RTRADB03";
inline constexpr std::size_t kMagicBytes = 8;

/// Level counts and sizes beyond these bounds mean a corrupt header, not
/// a real database; rejecting early keeps a doctored file from driving a
/// multi-terabyte allocation.
inline constexpr std::uint32_t kMaxLevels = 4096;
inline constexpr std::uint64_t kMaxLevelSize = 1ull << 40;

/// RTRADB03 block geometry.  Positions per block must be even so every
/// block boundary is byte-aligned at 4-bit packing (two positions per
/// byte) and decoded blocks concatenate without shifting.
inline constexpr std::uint32_t kDefaultBlockPositions = 4096;
inline constexpr std::uint32_t kMaxBlockPositions = 65536;

/// Directory-size sanity bound: a level may hold at most this many
/// blocks (the real ceiling, kMaxLevelSize / 2 blocks, would let a
/// doctored header demand a gigantic directory allocation).
inline constexpr std::uint32_t kMaxLevelBlocks = 1u << 20;

/// RTRADB03 per-block storage schemes — the directory tag byte.  The
/// encoder tries every applicable scheme and keeps the smallest
/// encoding, so raw is the transparent fallback when compression does
/// not pay.
enum class BlockScheme : std::uint8_t {
  kRaw = 0,   // bit-packed codes, exactly the RTRADB02 byte layout
  kRle = 1,   // (code, varint run-length) pairs over runs of equal codes
  kFreq = 2,  // canonical-prefix (frequency) coded symbols
};

inline constexpr std::uint8_t kBlockSchemeCount = 3;

/// Frequency-coded blocks carry a symbol table of u8 symbols, so the
/// scheme only applies at 4- and 8-bit packing; code lengths are capped
/// so the decoder's bit accumulator never overflows.
inline constexpr std::uint32_t kFreqMaxSymbols = 256;
inline constexpr std::uint32_t kFreqMaxCodeBits = 32;

}  // namespace retra::db
