#include "retra/db/db_io.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "retra/db/block_codec.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/support/check.hpp"

namespace retra::db {

namespace {

/// Serialized size of one RTRADB03 block-directory entry:
/// u8 scheme | u32 stored bytes | u64 offset | u64 checksum.
constexpr std::size_t kDirEntryBytes = 1 + 4 + 8 + 8;

/// Serialized size of the fixed RTRADB03 level header: u64 size | u8 bits |
/// i16 offset | u32 block positions | u32 block count | u64 payload bytes.
/// The directory checksum covers these bytes followed by the directory.
constexpr std::size_t kLevelHeaderBytes = 8 + 1 + 2 + 4 + 4 + 8;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void write_bytes(std::FILE* f, const void* data, std::size_t size) {
  RETRA_CHECK_MSG(std::fwrite(data, 1, size, f) == size, "short write");
}

template <typename T>
void write_pod(std::FILE* f, T value) {
  write_bytes(f, &value, sizeof value);
}

bool read_bytes(std::FILE* f, void* data, std::size_t size) {
  return std::fread(data, 1, size, f) == size;
}

template <typename T>
bool read_pod(std::FILE* f, T& value) {
  return read_bytes(f, &value, sizeof value);
}

std::uint64_t file_position(std::FILE* f) {
  const long pos = std::ftell(f);
  RETRA_CHECK_MSG(pos >= 0, "ftell failed");
  return static_cast<std::uint64_t>(pos);
}

bool seek_to(std::FILE* f, std::uint64_t offset) {
  return std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof value);
}

template <typename T>
T extract_pod(const std::uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof value);
  return value;
}

/// Writes one RTRADB03 level: header and block directory under one
/// checksum, then the concatenated stored blocks.
void save_compressed_level(std::FILE* f, const std::vector<Value>& values,
                           std::uint32_t block_positions) {
  const CompactLevel packed(values);
  const auto size = static_cast<std::uint64_t>(values.size());
  const int bits = packed.bits();
  const Value offset = packed.offset();

  std::vector<std::uint16_t> codes(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    codes[i] = static_cast<std::uint16_t>(values[i] - offset);
  }

  const std::uint64_t block_count =
      size == 0 ? 0 : (size + block_positions - 1) / block_positions;
  std::vector<EncodedBlock> blocks;
  blocks.reserve(static_cast<std::size_t>(block_count));
  std::uint64_t payload_bytes = 0;
  for (std::uint64_t b = 0; b < block_count; ++b) {
    const std::uint64_t begin = b * block_positions;
    const std::uint64_t count = std::min<std::uint64_t>(block_positions,
                                                        size - begin);
    EncodedBlock encoded = encode_block(
        codes.data() + begin, static_cast<std::size_t>(count), bits);
    payload_bytes += encoded.bytes.size();
    switch (encoded.scheme) {
      case BlockScheme::kRaw:
        RETRA_OBS_INC(obs::Id::kDbCompressBlocksRaw);
        break;
      case BlockScheme::kRle:
        RETRA_OBS_INC(obs::Id::kDbCompressBlocksRle);
        break;
      case BlockScheme::kFreq:
        RETRA_OBS_INC(obs::Id::kDbCompressBlocksFreq);
        break;
    }
    RETRA_OBS_ADD(obs::Id::kDbCompressBytesIn,
                  CompactLevel::packed_bytes(count, bits));
    RETRA_OBS_ADD(obs::Id::kDbCompressBytesOut, encoded.bytes.size());
    blocks.push_back(std::move(encoded));
  }

  std::vector<std::uint8_t> record;
  record.reserve(kLevelHeaderBytes + blocks.size() * kDirEntryBytes);
  append_pod(record, size);
  append_pod(record, static_cast<std::uint8_t>(bits));
  append_pod(record, offset);
  append_pod(record, block_positions);
  append_pod(record, static_cast<std::uint32_t>(block_count));
  append_pod(record, payload_bytes);
  std::uint64_t running = 0;
  for (const EncodedBlock& block : blocks) {
    append_pod(record, static_cast<std::uint8_t>(block.scheme));
    append_pod(record, static_cast<std::uint32_t>(block.bytes.size()));
    append_pod(record, running);
    append_pod(record, fnv1a(block.bytes.data(), block.bytes.size()));
    running += block.bytes.size();
  }
  write_bytes(f, record.data(), record.size());
  write_pod(f, fnv1a(record.data(), record.size()));
  for (const EncodedBlock& block : blocks) {
    write_bytes(f, block.bytes.data(), block.bytes.size());
  }
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

int LevelLocation::block_count() const {
  if (block_positions == 0) return 1;
  return static_cast<int>(blocks.size());
}

std::uint64_t LevelLocation::block_begin(int block) const {
  if (block_positions == 0) return 0;
  return static_cast<std::uint64_t>(block) * block_positions;
}

std::uint64_t LevelLocation::block_size(int block) const {
  if (block_positions == 0) return size;
  const std::uint64_t begin = block_begin(block);
  RETRA_DCHECK(begin < size);
  return std::min<std::uint64_t>(block_positions, size - begin);
}

std::uint64_t LevelLocation::block_decoded_bytes(int block) const {
  if (block_positions == 0) return payload_bytes;
  return CompactLevel::packed_bytes(block_size(block), bits);
}

std::uint64_t LevelLocation::decoded_bytes() const {
  std::uint64_t total = 0;
  for (int b = 0; b < block_count(); ++b) total += block_decoded_bytes(b);
  return total;
}

std::uint64_t FileIndex::total_payload_bytes() const {
  std::uint64_t total = 0;
  for (const LevelLocation& location : levels) total += location.payload_bytes;
  return total;
}

std::uint64_t FileIndex::total_decoded_bytes() const {
  std::uint64_t total = 0;
  for (const LevelLocation& location : levels) total += location.decoded_bytes();
  return total;
}

void save(const Database& database, const std::string& path,
          const Format& format) {
  RETRA_CHECK_MSG(format.version == 3, "db::save writes RTRADB03 only");
  RETRA_CHECK_MSG(format.block_positions >= 1 &&
                      format.block_positions <= kMaxBlockPositions &&
                      format.block_positions % 2 == 0,
                  "block_positions must be even and within kMaxBlockPositions");
  File file(std::fopen(path.c_str(), "wb"));
  RETRA_CHECK_MSG(file != nullptr, "cannot open for writing: " + path);
  std::FILE* f = file.get();

  write_bytes(f, kMagic03.data(), kMagicBytes);
  write_pod(f, static_cast<std::uint32_t>(database.num_levels()));
  for (int l = 0; l < database.num_levels(); ++l) {
    save_compressed_level(f, database.level(l), format.block_positions);
  }
  RETRA_CHECK_MSG(std::fflush(f) == 0, "flush failed: " + path);
}

FileIndex scan(std::FILE* file) {
  FileIndex index;
  const auto fail = [&index](const std::string& message) {
    index.ok = false;
    index.error = message;
    return index;
  };

  if (std::fseek(file, 0, SEEK_END) != 0) return fail("seek failed");
  const std::uint64_t file_size = file_position(file);
  std::rewind(file);

  char magic[kMagicBytes];
  if (!read_bytes(file, magic, sizeof magic)) return fail("bad magic");
  if (std::memcmp(magic, kMagic01.data(), sizeof magic) == 0) {
    index.version = 1;
  } else if (std::memcmp(magic, kMagic02.data(), sizeof magic) == 0) {
    index.version = 2;
  } else if (std::memcmp(magic, kMagic03.data(), sizeof magic) == 0) {
    index.version = 3;
  } else {
    return fail("bad magic");
  }

  std::uint32_t level_count = 0;
  if (!read_pod(file, level_count) || level_count > kMaxLevels) {
    return fail("bad level count");
  }

  for (std::uint32_t l = 0; l < level_count; ++l) {
    const std::string where = " in level " + std::to_string(l);
    LevelLocation location;
    location.level = static_cast<int>(l);
    std::uint8_t stored_width = 0;
    if (!read_pod(file, location.size) || !read_pod(file, stored_width)) {
      return fail("bad level header" + where);
    }
    if (location.size > kMaxLevelSize) {
      return fail("bad level header" + where);
    }
    if (index.version == 1) {
      if (stored_width != 1 && stored_width != 2) {
        return fail("bad level header" + where);
      }
      location.raw = true;
      location.bits = stored_width * 8;
      location.payload_bytes = location.size * stored_width;
    } else {
      if (stored_width != 4 && stored_width != 8 && stored_width != 16) {
        return fail("bad level header" + where);
      }
      location.bits = stored_width;
      if (!read_pod(file, location.offset)) {
        return fail("bad level header" + where);
      }
      if (index.version == 3) {
        std::uint32_t block_count = 0;
        if (!read_pod(file, location.block_positions) ||
            !read_pod(file, block_count) ||
            !read_pod(file, location.payload_bytes)) {
          return fail("bad level header" + where);
        }
        if (location.block_positions < 1 ||
            location.block_positions > kMaxBlockPositions ||
            location.block_positions % 2 != 0) {
          return fail("bad block geometry" + where);
        }
        const std::uint64_t expected_blocks =
            location.size == 0
                ? 0
                : (location.size + location.block_positions - 1) /
                      location.block_positions;
        if (block_count != expected_blocks ||
            block_count > kMaxLevelBlocks) {
          return fail("bad block geometry" + where);
        }
        // The header as written, then the directory: what the checksum
        // covers.
        std::vector<std::uint8_t> record;
        append_pod(record, location.size);
        append_pod(record, stored_width);
        append_pod(record, location.offset);
        append_pod(record, location.block_positions);
        append_pod(record, block_count);
        append_pod(record, location.payload_bytes);
        const std::size_t directory_bytes =
            static_cast<std::size_t>(block_count) * kDirEntryBytes;
        record.resize(kLevelHeaderBytes + directory_bytes);
        std::uint8_t* directory = record.data() + kLevelHeaderBytes;
        if (!read_bytes(file, directory, directory_bytes)) {
          return fail("truncated block directory" + where);
        }
        std::uint64_t directory_checksum = 0;
        if (!read_pod(file, directory_checksum)) {
          return fail("truncated block directory" + where);
        }
        // Files written before the header joined the checksum carry one
        // over the directory alone; they keep loading.
        if (fnv1a(record.data(), record.size()) != directory_checksum &&
            fnv1a(directory, directory_bytes) != directory_checksum) {
          return fail("block directory checksum mismatch" + where);
        }
        location.payload_offset = file_position(file);
        location.blocks.reserve(block_count);
        std::uint64_t running = 0;
        for (std::uint32_t b = 0; b < block_count; ++b) {
          const std::string at = where + " block " + std::to_string(b);
          const std::uint8_t* entry =
              directory + static_cast<std::size_t>(b) * kDirEntryBytes;
          BlockLocation block;
          const std::uint8_t scheme = entry[0];
          if (scheme >= kBlockSchemeCount) {
            return fail("bad block scheme" + at);
          }
          block.scheme = static_cast<BlockScheme>(scheme);
          block.stored_bytes = extract_pod<std::uint32_t>(entry + 1);
          const auto relative = extract_pod<std::uint64_t>(entry + 5);
          block.checksum = extract_pod<std::uint64_t>(entry + 13);
          if (relative != running) {
            return fail("bad block directory" + at);
          }
          const std::uint64_t begin =
              static_cast<std::uint64_t>(b) * location.block_positions;
          const std::uint64_t count = std::min<std::uint64_t>(
              location.block_positions, location.size - begin);
          const std::uint64_t decoded =
              CompactLevel::packed_bytes(count, location.bits);
          const bool size_ok =
              block.scheme == BlockScheme::kRaw
                  ? block.stored_bytes == decoded
                  : block.stored_bytes >= 1 && block.stored_bytes <= decoded;
          if (!size_ok) {
            return fail("bad block directory" + at);
          }
          block.offset = location.payload_offset + running;
          running += block.stored_bytes;
          location.blocks.push_back(block);
        }
        if (running != location.payload_bytes) {
          return fail("bad block directory" + where);
        }
        if (location.payload_offset + location.payload_bytes > file_size) {
          return fail("truncated level payload" + where);
        }
        if (!seek_to(file, location.payload_offset + location.payload_bytes)) {
          return fail("truncated level payload" + where);
        }
        index.levels.push_back(std::move(location));
        continue;
      }
      if (!read_pod(file, location.payload_bytes)) {
        return fail("bad level header" + where);
      }
      if (location.payload_bytes !=
          CompactLevel::packed_bytes(location.size, location.bits)) {
        return fail("bad level header" + where);
      }
    }
    location.payload_offset = file_position(file);
    if (location.payload_offset + location.payload_bytes + sizeof(std::uint64_t) >
        file_size) {
      return fail("truncated level payload" + where);
    }
    if (!seek_to(file, location.payload_offset + location.payload_bytes)) {
      return fail("truncated level payload" + where);
    }
    if (!read_pod(file, location.checksum)) {
      return fail("missing checksum" + where);
    }
    index.levels.push_back(std::move(location));
  }
  if (file_position(file) != file_size) {
    return fail(level_count == 0
                    ? std::string("trailing bytes after the level count")
                    : "trailing bytes after level " +
                          std::to_string(level_count - 1));
  }
  index.ok = true;
  return index;
}

FileIndex scan(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (!file) {
    FileIndex index;
    index.error = "cannot open: " + path;
    return index;
  }
  return scan(file.get());
}

namespace {

/// Reads and decodes one RTRADB03 block to raw bit-packed bytes.
bool read_packed_block(std::FILE* file, const LevelLocation& location,
                       int block, std::vector<std::uint8_t>& packed,
                       std::string& error) {
  const std::string at = " in level " + std::to_string(location.level) +
                         " block " + std::to_string(block);
  const BlockLocation& entry = location.blocks[static_cast<std::size_t>(block)];
  if (!seek_to(file, entry.offset)) {
    error = "truncated level payload" + at;
    return false;
  }
  std::vector<std::uint8_t> stored(entry.stored_bytes);
  if (!read_bytes(file, stored.data(), stored.size())) {
    error = "truncated level payload" + at;
    return false;
  }
  if (fnv1a(stored.data(), stored.size()) != entry.checksum) {
    error = "block checksum mismatch" + at;
    return false;
  }
  BlockDecodeResult decoded =
      decode_block(entry.scheme, stored.data(), stored.size(),
                   location.block_size(block), location.bits);
  if (!decoded.ok) {
    error = "malformed block" + at + ": " + decoded.error;
    return false;
  }
  packed = std::move(decoded.packed);
  return true;
}

}  // namespace

LevelReadResult read_level(std::FILE* file, const LevelLocation& location) {
  LevelReadResult result;
  const auto fail = [&result](const std::string& message) {
    result.ok = false;
    result.error = message;
    return result;
  };
  const std::string where = " in level " + std::to_string(location.level);

  if (location.block_positions != 0) {
    // RTRADB03: decode every block and concatenate.  Blocks cover an
    // even number of positions, so each decoded block is byte-aligned
    // and the concatenation is exactly the RTRADB02 packed payload.
    std::vector<std::uint8_t> packed;
    packed.reserve(static_cast<std::size_t>(
        CompactLevel::packed_bytes(location.size, location.bits)));
    for (int b = 0; b < location.block_count(); ++b) {
      std::vector<std::uint8_t> block;
      std::string error;
      if (!read_packed_block(file, location, b, block, error)) {
        return fail(error);
      }
      packed.insert(packed.end(), block.begin(), block.end());
    }
    result.level = CompactLevel::from_packed(location.size, location.bits,
                                             location.offset,
                                             std::move(packed));
    result.ok = true;
    return result;
  }

  if (!seek_to(file, location.payload_offset)) {
    return fail("truncated level payload" + where);
  }
  std::vector<std::uint8_t> payload(location.payload_bytes);
  if (!read_bytes(file, payload.data(), payload.size())) {
    return fail("truncated level payload" + where);
  }
  if (fnv1a(payload.data(), payload.size()) != location.checksum) {
    return fail("checksum mismatch" + where);
  }

  if (!location.raw) {
    result.level = CompactLevel::from_packed(location.size, location.bits,
                                             location.offset,
                                             std::move(payload));
    result.ok = true;
    return result;
  }
  std::vector<Value> values(location.size);
  if (location.bits == 8) {
    for (std::uint64_t i = 0; i < location.size; ++i) {
      values[i] = static_cast<std::int8_t>(payload[i]);
    }
  } else {
    std::memcpy(values.data(), payload.data(), payload.size());
  }
  result.level = CompactLevel(values);
  result.ok = true;
  return result;
}

LevelReadResult read_block(std::FILE* file, const LevelLocation& location,
                           int block) {
  RETRA_CHECK_MSG(block >= 0 && block < location.block_count(),
                  "block index out of range");
  if (location.block_positions == 0) return read_level(file, location);
  LevelReadResult result;
  std::vector<std::uint8_t> packed;
  std::string error;
  if (!read_packed_block(file, location, block, packed, error)) {
    result.error = std::move(error);
    return result;
  }
  result.level = CompactLevel::from_packed(location.block_size(block),
                                           location.bits, location.offset,
                                           std::move(packed));
  result.ok = true;
  return result;
}

LevelReadResult read_only_level(const std::string& path) {
  LevelReadResult result;
  File file(std::fopen(path.c_str(), "rb"));
  if (!file) {
    result.error = "cannot open: " + path;
    return result;
  }
  const FileIndex index = scan(file.get());
  if (!index.ok || index.levels.size() != 1) {
    result.error = index.ok ? "holds " + std::to_string(index.levels.size()) +
                                  " levels, not one"
                            : index.error;
    return result;
  }
  return read_level(file.get(), index.levels[0]);
}

LoadResult load(const std::string& path) {
  LoadResult result;
  File file(std::fopen(path.c_str(), "rb"));
  if (!file) {
    result.error = "cannot open: " + path;
    return result;
  }
  std::FILE* f = file.get();

  const FileIndex index = scan(f);
  if (!index.ok) {
    result.error = index.error;
    return result;
  }
  for (const LevelLocation& location : index.levels) {
    LevelReadResult level = read_level(f, location);
    if (!level.ok) {
      result.error = level.error;
      return result;
    }
    std::vector<Value> values = level.level.expand();
    // An uncovered header field (the pack offset) can decode a code to
    // the solver's sentinel, which a finished database never holds.
    if (std::find(values.begin(), values.end(), kUnknown) != values.end()) {
      result.error = "unknown value in level " + std::to_string(location.level);
      return result;
    }
    result.database.push_level(location.level, std::move(values));
  }
  result.ok = true;
  return result;
}

}  // namespace retra::db
