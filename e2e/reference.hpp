// Host-speed reference for the end-to-end timings.
//
// The measurement host's speed drifts by tens of percent over tens of
// seconds (other tenants share its cores, cache and memory), far more than
// any bound a regression gate could use.  So every timed operation is
// paired with a fixed loop of the benchmark's own, run right before and
// right after it, and its time is rescaled to the host speed at which
// that loop takes its nominal time:
//
//   normalized = measured * nominal / (reference before + after) * 2
//
// The loops use no repository code, so a change to the program moves the
// normalized time exactly as much as the measured one.  Each job gets the
// loop that shares its bottleneck:
//   * kMemory (builds): 4 threads doing hashed
//     read-modify-writes over 24 MB each, meeting at a barrier every
//     20000 updates like BSP supersteps, then dependent sweeps over the
//     same words like scans;
//   * kLoopback (serving): 16-byte TCP round trips between two threads
//     over 127.0.0.1, the wake-ups and syscalls a request pays; the
//     median over the run also rescales the serving set-up;
//   * directory_reference_seconds() (build set-up): one mkdir + rmdir.
//
// The loops run in a helper process forked before the benchmark starts
// any thread, so their buffers never count in the workload's peak RSS.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace retra::e2e {

class Reference {
 public:
  enum class Kind : char { kMemory = 'm', kLoopback = 'l' };

  /// Forks the helper.  Call before the process starts any thread.
  Reference();
  /// Closes the helper's command pipe and waits for it to exit.
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Runs `kind` once in the helper and returns its wall seconds.
  double seconds(Kind kind);

  /// The loop's time at the host speed normalized times are quoted at.
  static double nominal_seconds(Kind kind);

 private:
  pid_t pid_ = -1;
  int command_fd_ = -1;  // parent -> helper: one Kind byte per run
  int reply_fd_ = -1;    // helper -> parent: one double per run
};

/// One mkdir + rmdir of a fixed directory under `root`, in wall seconds:
/// the reference for the build workloads' set-up, which is almost all
/// directory syscalls.  Runs in the calling process; it allocates nothing.
double directory_reference_seconds(const std::string& root);

/// directory_reference_seconds() at the nominal host speed.
inline constexpr double kNominalDirectorySeconds = 45e-6;

/// Times one operation between two reference runs of one kind.
class Normalizer {
 public:
  Normalizer(Reference& reference, Reference::Kind kind)
      : reference_(reference), kind_(kind) {}

  /// Measures the reference once; call before the first operation.
  void start() { measured_.push_back(reference_.seconds(kind_)); }

  /// Measures the reference again and returns the factor that rescales
  /// what ran since the previous call to the nominal host speed.
  double next_factor() {
    const double before = measured_.back();
    measured_.push_back(reference_.seconds(kind_));
    return 2.0 * Reference::nominal_seconds(kind_) /
           (before + measured_.back());
  }

  /// Every reference time measured so far.
  const std::vector<double>& measured() const { return measured_; }

 private:
  Reference& reference_;
  Reference::Kind kind_;
  std::vector<double> measured_;
};

}  // namespace retra::e2e
