//===- serve/ServeHarness.h - Long-lived-engine session replayer -*- C++ -*-===//
///
/// \file
/// Replays tens of thousands of synthetic user sessions
/// (serve/SessionWorkload.h) against ONE long-lived Runtime + Engine —
/// the server-side-JS deployment shape, as opposed to the one-page-load
/// lifetime the paper measured. A fixed-size window of sessions is
/// live at any moment; the scheduler interleaves them round-robin, one
/// request per turn, so compiled code, profile state and the shared
/// SpecSig code cache (jit/CodeCache.h) all carry over from session to
/// session exactly as they would in a real serving process.
///
/// Reported per run: p50/p99/mean session latency (a session's latency
/// is the sum of its requests' service times), compile-queue depth
/// (max + mean, sampled once per request), and — when the cache is on —
/// hit/miss/eviction counters plus resident code bytes.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_SERVE_SERVEHARNESS_H
#define JITVS_SERVE_SERVEHARNESS_H

#include "jit/CodeCache.h"
#include "jit/Engine.h"
#include "serve/SessionWorkload.h"

#include <cstdint>

namespace jitvs {

struct ServeOptions {
  ServeModel Model;
  /// Total sessions replayed (the acceptance floor is 10k).
  unsigned Sessions = 10000;
  /// Concurrently live sessions (the round-robin window width).
  unsigned Concurrency = 64;
  uint64_t Seed = 1;
};

struct ServeResult {
  uint64_t Sessions = 0;
  uint64_t Calls = 0;
  /// Runtime errors surfaced by session calls (must be 0; a non-zero
  /// count means the bundle or the engine miscompiled).
  uint64_t Errors = 0;

  double TotalSeconds = 0.0;
  double P50Seconds = 0.0;
  double P99Seconds = 0.0;
  double MeanSeconds = 0.0;

  size_t MaxQueueDepth = 0;
  double MeanQueueDepth = 0.0;

  bool CacheEnabled = false; ///< The engine ran with a byte budget.
  CodeCache::Stats Cache;
  /// Hits / (Hits + Misses); 0 when the cache is off or idle.
  double CacheHitRate = 0.0;
  size_t ResidentCodeBytes = 0;
  size_t CacheBudgetBytes = 0;
  size_t CacheEntries = 0;

  EngineStats Engine;
};

/// Runs one serving experiment: builds the site bundle, constructs a
/// Runtime + Engine(\p Config, \p Knobs), evaluates the bundle once,
/// then replays Opts.Sessions sessions through the round-robin window.
/// Deterministic in Opts.Seed for synchronous engines.
ServeResult runServe(const ServeOptions &Opts, const OptConfig &Config,
                     const EngineKnobs &Knobs);

/// Sorted-percentile helper (nearest-rank; \p P in [0, 100]). Exposed
/// for the unit tests.
double percentileSorted(const std::vector<double> &Sorted, double P);

} // namespace jitvs

#endif // JITVS_SERVE_SERVEHARNESS_H
