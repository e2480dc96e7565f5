// Committed files in formats nothing writes any more; the readers must
// keep accepting them.  The RTRADB01/02 files were written by the last
// writers of those formats (commit 5e100fe; db::save now writes RTRADB03
// only).  They were generated there with
//
//   db_builder --level=3 --format=v1 --out=tests/fixtures/awari3.rtradb01
//   db_builder --level=3 --format=v2 --out=tests/fixtures/awari3.rtradb02
//
// (awari levels 0..3: 8-bit raw and 4-bit packed levels), and with
//
//   db::save(widths_database(), "tests/fixtures/widths.rtradb01",
//            db::Format{.version = 1});
//   db::save(widths_database(), "tests/fixtures/widths.rtradb02",
//            db::Format{.version = 2});
//
// (8- and 16-bit raw levels; 4-, 8- and 16-bit packed levels).
//
// awari3.rtradb03 is an RTRADB03 file whose dir_checksum fields cover
// the block directories alone, as written before the level header joined
// that checksum (commit 641066d):
//
//   db_builder --level=3 --ranks=1 --block-positions=64
//              --out=tests/fixtures/awari3.rtradb03
//
// (awari levels 0..3 in 1, 1, 2 and 6 blocks).
#pragma once

#include <string>

#include "retra/db/database.hpp"

namespace retra::test {

/// Absolute path of a committed fixture file.
inline std::string fixture_path(const char* name) {
  return std::string(RETRA_FIXTURE_DIR) + "/" + name;
}

/// The widths fixtures' database: one level per storage width.  Zero
/// span and span 7 pack at 4 bits, span 200 at 8 (one raw byte), a full
/// int16 span at 16 (two raw bytes).
inline db::Database widths_database() {
  db::Database database;
  database.push_level(0, {0});
  database.push_level(1, {3, 4, 5, 6, 7, 8, 9, 10});
  database.push_level(2, {-100, 100, 0});
  database.push_level(3, {-3000, 3000, 12});
  return database;
}

}  // namespace retra::test
