// Distributed database verification.
//
// Re-checks the Bellman local-consistency property of a solved level
// entirely under the distributed-memory discipline: each rank rescans its
// own positions and resolves every option value — capture exits against
// lower levels AND same-level successors — through the same combined
// lookup/reply machinery the builder uses (a successor probe is just a
// lookup with reward 0: value −v(s)).  A 64-rank verification pass thus
// exercises every communication path of the system against a completed
// database, which is how a long production run would audit a checkpoint
// without gathering 600 MB to one node.
//
// (The well-foundedness certificate for positive values needs the
// builder's assignment order and is checked by ra::verify_level in the
// sequential tests; this pass checks consistency, which is the property
// that catches transport/partition corruption.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "retra/game/level_game.hpp"
#include "retra/msg/combiner.hpp"
#include "retra/msg/comm.hpp"
#include "retra/msg/round_world.hpp"
#include "retra/para/dist_db.hpp"
#include "retra/para/drivers.hpp"
#include "retra/para/records.hpp"
#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::para {

struct VerifySummary {
  std::uint64_t positions_checked = 0;
  std::uint64_t failures = 0;
  std::string first_error;

  bool ok() const { return failures == 0; }

  void merge(const VerifySummary& other) {
    positions_checked += other.positions_checked;
    failures += other.failures;
    if (first_error.empty()) first_error = other.first_error;
  }
};

/// Per-rank verification engine with the standard superstep API.
template <typename Game>
class VerifyEngine {
 public:
  VerifyEngine(const Game& game, int level, const DistributedDatabase& ddb,
               msg::Comm& comm, std::size_t combine_bytes)
      : game_(game),
        level_(level),
        ddb_(ddb),
        partition_(ddb.partition(level)),
        comm_(comm),
        lookup_combiner_(comm, kTagLookup, combine_bytes),
        reply_combiner_(comm, kTagReply, combine_bytes) {
    const std::uint64_t local = partition_.local_size(comm_.rank());
    best_.assign(local, INT16_MIN);
    pending_.assign(local, 0);
  }

  StepReport superstep() {
    StepReport step;
    drain(step);
    if (!scanned_) {
      scan(step);
      scanned_ = true;
    }
    lookup_combiner_.flush_all();
    reply_combiner_.flush_all();
    step.ready = true;
    return step;
  }

  void advance() {
    // Quiescence: every probe answered.  Finish the positions that were
    // waiting on remote values.
    for (std::uint64_t local = 0; local < pending_.size(); ++local) {
      RETRA_CHECK_MSG(pending_[local] == 0, "verification probe lost");
    }
    done_ = true;
  }

  bool done() const { return done_; }
  const VerifySummary& summary() const { return summary_; }

 private:
  int rank() const { return comm_.rank(); }

  db::Value my_value(std::uint64_t local) const {
    return ddb_.value_local(rank(), level_,
                            partition_.to_global(rank(), local));
  }

  void check_if_complete(std::uint64_t local) {
    if (pending_[local] != 0) return;
    ++summary_.positions_checked;
    if (best_[local] != my_value(local)) {
      ++summary_.failures;
      if (summary_.first_error.empty()) {
        summary_.first_error =
            "position " +
            std::to_string(partition_.to_global(rank(), local)) +
            " of level " + std::to_string(level_) + ": stored " +
            std::to_string(my_value(local)) + ", options max " +
            std::to_string(best_[local]);
      }
    }
  }

  void probe(std::uint64_t local, int target_level, idx::Index target,
             std::int16_t reward, bool same_mover, StepReport& step) {
    const Partition::Location where = ddb_.locate(rank(), target_level, target);
    if (where.owner == rank()) {
      const db::Value v =
          ddb_.value_local(rank(), target_level, target);
      const auto value = static_cast<db::Value>(
          same_mover ? reward + v : reward - v);
      if (value > best_[local]) best_[local] = value;
      return;
    }
    ++pending_[local];
    LookupRecord record;
    record.target = target;
    record.requester = partition_.to_global(rank(), local);
    record.reward = reward;
    record.level = static_cast<std::uint8_t>(target_level);
    record.same_mover = same_mover ? 1 : 0;
    std::byte buffer[LookupRecord::kWireSize];
    record.encode(buffer);
    lookup_combiner_.append(where.owner, buffer, LookupRecord::kWireSize);
    ++step.records_sent;
  }

  void scan(StepReport& step) {
    const std::uint64_t local_size = partition_.local_size(rank());
    // to_global is monotonic in `local`, so the cursor walks boards with
    // next_board() hops instead of unranking every index.
    auto cursor = game_.option_cursor();
    for (std::uint64_t local = 0; local < local_size; ++local) {
      const idx::Index global = partition_.to_global(rank(), local);
      comm_.meter().charge(msg::WorkKind::kScanPosition);
      cursor.visit_options(
          global,
          [&](const game::Exit& exit) {
            comm_.meter().charge(msg::WorkKind::kExitOption);
            if (exit.is_terminal()) {
              if (exit.reward > best_[local]) best_[local] = exit.reward;
              return;
            }
            probe(local, exit.lower_level, exit.lower_index, exit.reward,
                  exit.same_mover, step);
          },
          [&](idx::Index succ) {
            comm_.meter().charge(msg::WorkKind::kLevelEdge);
            // Successor option −v(s): a zero-reward probe into this level.
            probe(local, level_, succ, 0, false, step);
          });
      ++step.work;
      check_if_complete(local);
    }
  }

  void drain(StepReport& step) {
    msg::Message message;
    while (comm_.try_recv(message)) {
      msg::WireReader reader(message.payload.data());
      if (message.tag == kTagLookup) {
        const std::size_t count =
            message.payload.size() / LookupRecord::kWireSize;
        RETRA_CHECK(count * LookupRecord::kWireSize ==
                    message.payload.size());
        for (std::size_t i = 0; i < count; ++i) {
          const LookupRecord lookup = LookupRecord::decode(reader);
          comm_.meter().charge(msg::WorkKind::kRecordUnpack);
          ++step.records_received;
          const db::Value v =
              ddb_.value_local(rank(), lookup.level, lookup.target);
          ReplyRecord reply;
          reply.requester = lookup.requester;
          reply.value = static_cast<db::Value>(
              lookup.same_mover ? lookup.reward + v : lookup.reward - v);
          std::byte buffer[ReplyRecord::kWireSize];
          reply.encode(buffer);
          reply_combiner_.append(message.source, buffer,
                                 ReplyRecord::kWireSize);
          ++step.records_sent;
          ++step.work;
        }
      } else {
        RETRA_CHECK(message.tag == kTagReply);
        const std::size_t count =
            message.payload.size() / ReplyRecord::kWireSize;
        RETRA_CHECK(count * ReplyRecord::kWireSize ==
                    message.payload.size());
        for (std::size_t i = 0; i < count; ++i) {
          const ReplyRecord reply = ReplyRecord::decode(reader);
          comm_.meter().charge(msg::WorkKind::kRecordUnpack);
          ++step.records_received;
          const std::uint64_t local = partition_.to_local(reply.requester);
          RETRA_CHECK(partition_.owner(reply.requester) == rank());
          if (reply.value > best_[local]) best_[local] = reply.value;
          RETRA_CHECK(pending_[local] > 0);
          --pending_[local];
          ++step.work;
          check_if_complete(local);
        }
      }
    }
  }

  const Game& game_;
  int level_;
  const DistributedDatabase& ddb_;
  const Partition& partition_;
  msg::Comm& comm_;
  msg::Combiner lookup_combiner_;
  msg::Combiner reply_combiner_;

  bool scanned_ = false;
  bool done_ = false;
  std::vector<db::Value> best_;
  std::vector<std::uint32_t> pending_;
  VerifySummary summary_;
};

/// Verifies one stored level of `ddb` across `world`'s ranks, in BSP
/// rounds on the calling thread or (`use_threads`) one thread per rank.
template <typename Game>
VerifySummary verify_level_distributed(const Game& game, int level,
                                       const DistributedDatabase& ddb,
                                       msg::RoundWorld& world,
                                       std::size_t combine_bytes = 4096,
                                       bool use_threads = false) {
  std::vector<std::unique_ptr<VerifyEngine<Game>>> engines;
  engines.reserve(support::to_size(ddb.ranks()));
  for (int rank = 0; rank < ddb.ranks(); ++rank) {
    engines.push_back(std::make_unique<VerifyEngine<Game>>(
        game, level, ddb, world.endpoint(rank), combine_bytes));
  }
  run_bsp(engines, use_threads, RoundDelivery{world});
  VerifySummary summary;
  for (const auto& engine : engines) summary.merge(engine->summary());
  return summary;
}

}  // namespace retra::para
