#include "retra/serve/file_source.hpp"

#include <utility>

#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::serve {

FileSource::FileSource(Passkey, std::FILE* file, db::FileIndex index)
    : file_(file), index_(std::move(index)) {}

FileSource::~FileSource() {
  if (file_) std::fclose(file_);
}

FileSource::OpenResult FileSource::open(const std::string& path) {
  OpenResult result;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) {
    result.error = "cannot open: " + path;
    return result;
  }
  db::FileIndex index = db::scan(file);
  if (!index.ok) {
    std::fclose(file);
    result.error = index.error;
    return result;
  }
  result.ok = true;
  result.source =
      std::make_unique<FileSource>(Passkey{}, file, std::move(index));
  return result;
}

const db::LevelLocation& FileSource::location(int level) const {
  RETRA_CHECK_MSG(covers(level), "level not covered by this file");
  return index_.levels[support::to_size(level)];
}

std::uint64_t FileSource::level_size(int level) const {
  return location(level).size;
}

int FileSource::block_count(int level) const {
  return location(level).block_count();
}

int FileSource::block_of(int level, idx::Index index) const {
  const db::LevelLocation& where = location(level);
  if (where.block_positions == 0) return 0;
  return static_cast<int>(index / where.block_positions);
}

std::uint64_t FileSource::block_begin(int level, int block) const {
  return location(level).block_begin(block);
}

std::uint64_t FileSource::block_decoded_bytes(int level, int block) const {
  return location(level).block_decoded_bytes(block);
}

db::CompactLevel FileSource::read_block(int level, int block) {
  const db::LevelLocation& where = location(level);
  RETRA_CHECK_MSG(block >= 0 && block < where.block_count(),
                  "block not covered by this level");
  db::LevelReadResult read = db::read_block(file_, where, block);
  RETRA_CHECK_MSG(read.ok, read.error);
  return std::move(read.level);
}

}  // namespace retra::serve
