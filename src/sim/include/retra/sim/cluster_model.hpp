// Cost model of the paper's platform: SPARC-class workstations on a
// shared 10 Mbit/s Ethernet with millisecond-scale RPC software overheads.
//
// Absolute 1995 numbers cannot be measured here, so the model prices the
// engine's *abstract work units* (WorkMeter) and its messages; every
// default below is stated with its rationale and can be overridden by the
// bench binaries.  The reproduced claims are ratios — speedups, combining
// factors, crossover points — which depend on the cost *ratios*, not on
// any absolute constant.
#pragma once

#include <array>
#include <cstdint>

#include "retra/msg/work_meter.hpp"

namespace retra::sim {

struct MachineModel {
  /// Mid-90s workstation issuing useful work at ~10 M simple ops/s once
  /// memory stalls are folded in (SPARCclassic ≈ 26 MHz microSPARC).
  double cpu_ops_per_second = 10e6;

  /// Cost, in machine ops, of one unit of each abstract work kind.  The
  /// ratios follow the real instruction mix of this codebase: unmove
  /// generation with forward verification (kPredEdge) is the most
  /// expensive step, record handling the cheapest.  At awari densities
  /// these come to roughly half a millisecond per position on the 10 MHz
  /// budget — consistent with the abstract's tens-of-CPU-hours databases.
  std::array<double, msg::kWorkKinds> op_cost = [] {
    std::array<double, msg::kWorkKinds> cost{};
    cost[static_cast<std::size_t>(msg::WorkKind::kScanPosition)] = 200;
    cost[static_cast<std::size_t>(msg::WorkKind::kExitOption)] = 450;
    cost[static_cast<std::size_t>(msg::WorkKind::kLevelEdge)] = 350;
    cost[static_cast<std::size_t>(msg::WorkKind::kAssign)] = 80;
    cost[static_cast<std::size_t>(msg::WorkKind::kPredEdge)] = 800;
    cost[static_cast<std::size_t>(msg::WorkKind::kUpdateApply)] = 60;
    // One load + compare + (rare) branch per position examined by the
    // seed/zero-fill value sweeps; the cheapest kind, and the only one
    // the vector-width term divides.
    cost[static_cast<std::size_t>(msg::WorkKind::kSweepPosition)] = 15;
    cost[static_cast<std::size_t>(msg::WorkKind::kRecordPack)] = 30;
    cost[static_cast<std::size_t>(msg::WorkKind::kRecordUnpack)] = 30;
    return cost;
  }();

  /// Per-message software overhead on the sender / receiver (protocol
  /// stack, context switch): ~1 ms, the Amoeba/SunOS RPC ballpark the
  /// paper's combining argument hinges on.
  double send_overhead_s = 1.0e-3;
  double recv_overhead_s = 1.0e-3;

  /// Worker threads inside each rank (two-level parallelism, P×T).  The
  /// engines' chunk-parallel phases — the Init scan with its option
  /// pricing — divide across the workers; update application and
  /// message handling are priced on the rank thread (see
  /// chunk_parallel_kind).  1 models the paper's single-threaded nodes.
  int worker_threads = 1;

  /// Per-phase overrides mirroring EngineConfig::threads_scan /
  /// threads_drain: the scan-side sweeps and the drain waves saturate at
  /// different widths, so their kinds can be priced with different
  /// divisors.  0 inherits worker_threads.
  int scan_threads = 0;
  int drain_threads = 0;

  /// std::int16_t lanes the sweep kernels process per operation (the
  /// exec::simd backend width).  Only kSweepPosition divides by it: the
  /// seed/zero-fill sweeps are the data-parallel compare/select loops;
  /// everything else is per-edge work with game callbacks.  1 models the
  /// paper's scalar SPARCs; benches set the host's width for the
  /// model-vs-host panels.
  int vector_lanes = 1;

  int threads_scan() const {
    const int t = scan_threads > 0 ? scan_threads : worker_threads;
    return t > 1 ? t : 1;
  }
  int threads_drain() const {
    const int t = drain_threads > 0 ? drain_threads : worker_threads;
    return t > 1 ? t : 1;
  }

  /// Work kinds charged by the chunk-parallel phases, each divided by its
  /// phase's thread count when pricing: the Init scan's kinds (and the
  /// sweeps' kSweepPosition) by threads_scan(), the drain waves'
  /// kPredEdge by threads_drain().  kAssign is excluded even though the
  /// seeding sweep is chunked too: most assignments happen while
  /// applying staged updates on the rank thread and the meter does not
  /// distinguish them.  kUpdateApply is priced serially for the same
  /// reason: para::RankEngine applies a wave's local updates in parallel
  /// slices but incoming update records on the rank thread, and the
  /// meter charges both alike.  Record pack/unpack stay serial.
  static constexpr bool chunk_parallel_kind(msg::WorkKind kind) {
    return kind == msg::WorkKind::kScanPosition ||
           kind == msg::WorkKind::kExitOption ||
           kind == msg::WorkKind::kLevelEdge ||
           kind == msg::WorkKind::kSweepPosition ||
           kind == msg::WorkKind::kPredEdge;
  }

  /// Local-disk pricing for out-of-core builds: mid-90s SCSI drives
  /// stream at a few MB/s and pay roughly a seek plus rotational latency
  /// per discrete transfer.  Spill/fault traffic is sequential block I/O,
  /// so it is priced as ops × overhead + bytes / bandwidth.
  double disk_bytes_per_second = 5e6;
  double disk_op_overhead_s = 0.012;

  /// Seconds of disk time for `ops` discrete transfers moving `bytes`.
  double io_seconds(std::uint64_t ops, std::uint64_t bytes) const {
    return static_cast<double>(ops) * disk_op_overhead_s +
           static_cast<double>(bytes) / disk_bytes_per_second;
  }

  /// Seconds of CPU for a meter full of work.
  double cpu_seconds(const msg::WorkMeter& meter) const {
    double ops = 0.0;
    for (std::size_t k = 0; k < msg::kWorkKinds; ++k) {
      const auto kind = static_cast<msg::WorkKind>(k);
      double cost = op_cost[k] * static_cast<double>(meter.counts[k]);
      if (chunk_parallel_kind(kind)) {
        cost /= kind == msg::WorkKind::kPredEdge ? threads_drain()
                                                 : threads_scan();
      }
      if (kind == msg::WorkKind::kSweepPosition && vector_lanes > 1) {
        cost /= vector_lanes;
      }
      ops += cost;
    }
    return ops / cpu_ops_per_second;
  }
};

struct EthernetModel {
  /// Classic shared 10BASE Ethernet.
  double bandwidth_bps = 10e6;
  /// Preamble + MAC + IP/UDP-ish headers per frame.
  std::uint32_t frame_overhead_bytes = 58;
  /// Minimum payload occupancy (Ethernet minimum frame).
  std::uint32_t min_frame_bytes = 64;
  /// Bridged segments.  A 64-station 10BASE network cannot be one
  /// collision domain (the spec caps stations per segment), so the
  /// cluster is modelled as `segments` bridged Ethernets; a frame
  /// occupies its sender's segment.  Aggregate bandwidth therefore
  /// scales with segments, not with P — the term that bends the speedup
  /// curve.
  int segments = 4;

  /// Medium occupancy of one message of `payload` bytes on its segment.
  double medium_seconds(std::uint64_t payload) const {
    const std::uint64_t frame =
        payload + frame_overhead_bytes < min_frame_bytes
            ? min_frame_bytes
            : payload + frame_overhead_bytes;
    return static_cast<double>(frame) * 8.0 / bandwidth_bps;
  }

  int segment_of(int rank) const { return rank % segments; }
};

struct ClusterModel {
  MachineModel machine;
  EthernetModel net;

  /// Barrier + counter allreduce closing every superstep: a linear
  /// gather to rank 0 plus a broadcast — on a bus there is no tree
  /// speedup, so this costs P small messages and is one of the terms
  /// that bends the speedup curve at high P.
  double barrier_seconds(int ranks) const {
    const double per_message =
        machine.send_overhead_s + net.medium_seconds(32);
    return static_cast<double>(ranks + 1) * per_message;
  }
};

}  // namespace retra::sim
