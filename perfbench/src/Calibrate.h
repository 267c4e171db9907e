//===- perfbench/src/Calibrate.h - Host-speed calibration -------*- C++ -*-===//
///
/// \file
/// On a shared host the speed of one thread moves by up to 1.5x for
/// seconds at a time, on the thread's own CPU clock (so not preemption:
/// frequency changes and contention for the core and caches). A run that
/// lands in a slow stretch would report a slow jitvs. The Calibrator times
/// a fixed piece of work that does not touch jitvs, now and then between
/// ops; a figure taken over a stretch of the run is scaled by that
/// stretch's median calibration time over CalibRefNs, which cancels the
/// host's swings and leaves jitvs's own speed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The clock every benchmark time is read from: this thread's CPU time.
/// The measuring thread never blocks (it spins until each request is
/// due, and compiles either run on it or on a worker it never waits
/// for), so this is the wall clock minus the time the host preempted the
/// process. Those preemptions (milliseconds, tens per second on a shared
/// host) would otherwise set an open-loop p99 by themselves.
int64_t clockNs();

/// The calibration time, in ns, the scaled figures are expressed at:
/// about what the kernel takes on a 2.1 GHz x86-64 server core.
constexpr double CalibRefNs = 1.0e6;

class Calibrator {
public:
  Calibrator();

  /// Runs the kernel once; records its time against \p Mark (an op index
  /// or any other position in the run) and \returns it in ns.
  int64_t run(uint64_t Mark);

  /// Median kernel time over the records with Mark in [From, To), or over
  /// all records when none falls there.
  double medianNs(uint64_t From, uint64_t To) const;
  /// \returns CalibRefNs divided by medianNs(From, To): above 1 when the
  /// host ran faster than the reference.
  double speed(uint64_t From, uint64_t To) const {
    return CalibRefNs / medianNs(From, To);
  }
  size_t runs() const { return Records.size(); }

private:
  struct Record {
    uint64_t Mark;
    int64_t Ns;
  };
  std::vector<uint32_t> Chain; ///< A random cycle over 4 MiB.
  std::vector<Record> Records;
  uint64_t Sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
