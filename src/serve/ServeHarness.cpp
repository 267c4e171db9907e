//===- serve/ServeHarness.cpp - Long-lived-engine session replayer --------===//

#include "serve/ServeHarness.h"

#include "support/Timer.h"
#include "vm/Runtime.h"

#include <algorithm>
#include <cmath>

using namespace jitvs;

double jitvs::percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  // Nearest-rank: ceil(P/100 * N)-th smallest (1-based).
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Sorted.size()));
  size_t Idx = static_cast<size_t>(std::max(1.0, Rank)) - 1;
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

namespace {

/// One live session in the round-robin window.
struct LiveSession {
  std::vector<CallEvent> Events;
  size_t Next = 0;
  double LatencySeconds = 0.0;
};

/// Deterministic per-session stream: session \p Id always replays the
/// same calls regardless of window width or admission order.
std::vector<CallEvent> sessionEvents(const SiteBundle &Site,
                                     const ServeModel &Model, uint64_t Seed,
                                     uint64_t Id) {
  RNG Rand(Seed * 1000003ull + Id * 2654435761ull + 1);
  return generateSession(Site, Model, Rand);
}

} // namespace

ServeResult jitvs::runServe(const ServeOptions &Opts, const OptConfig &Config,
                            const EngineKnobs &Knobs) {
  ServeResult Res;
  SiteBundle Site = buildSiteBundle(Opts.Model, Opts.Seed);

  Runtime RT;
  Engine E(RT, Config, Knobs);
  RT.evaluate(Site.Source);
  if (RT.hasError()) {
    ++Res.Errors;
    return Res;
  }

  const unsigned Window =
      std::max(1u, std::min(Opts.Concurrency, Opts.Sessions));
  std::vector<LiveSession> Live(Window);
  uint64_t Admitted = 0;
  for (LiveSession &S : Live)
    S.Events = sessionEvents(Site, Opts.Model, Opts.Seed, Admitted++);

  std::vector<double> Latencies;
  Latencies.reserve(Opts.Sessions);
  std::vector<Value> Args(2);
  uint64_t DepthSamples = 0;
  double DepthSum = 0.0;

  Timer Total;
  uint64_t Completed = 0;
  while (Completed < Opts.Sessions) {
    for (LiveSession &S : Live) {
      if (Completed >= Opts.Sessions)
        break;
      if (S.Next >= S.Events.size())
        continue; // Window wider than the remaining tail.
      // Serve one request: CallsPerRequest calls, timed as a unit.
      size_t End = std::min(S.Next + Opts.Model.CallsPerRequest,
                            S.Events.size());
      Timer Req;
      for (; S.Next != End; ++S.Next) {
        const CallEvent &Ev = S.Events[S.Next];
        Args[0] = Value::int32(static_cast<int32_t>(Ev.Func));
        Args[1] = Value::int32(static_cast<int32_t>(Ev.Arg));
        RT.callGlobal("drive", Args);
        ++Res.Calls;
        if (RT.hasError()) {
          ++Res.Errors;
          RT.clearError();
        }
      }
      S.LatencySeconds += Req.seconds();
      size_t Depth = E.pendingCompiles();
      Res.MaxQueueDepth = std::max(Res.MaxQueueDepth, Depth);
      DepthSum += static_cast<double>(Depth);
      ++DepthSamples;

      if (S.Next >= S.Events.size()) {
        Latencies.push_back(S.LatencySeconds);
        ++Completed;
        if (Admitted < Opts.Sessions) {
          S.Events = sessionEvents(Site, Opts.Model, Opts.Seed, Admitted++);
          S.Next = 0;
          S.LatencySeconds = 0.0;
        }
      }
    }
  }
  E.drainCompiles();
  Res.TotalSeconds = Total.seconds();

  Res.Sessions = Completed;
  std::sort(Latencies.begin(), Latencies.end());
  Res.P50Seconds = percentileSorted(Latencies, 50.0);
  Res.P99Seconds = percentileSorted(Latencies, 99.0);
  double Sum = 0.0;
  for (double L : Latencies)
    Sum += L;
  Res.MeanSeconds = Latencies.empty() ? 0.0 : Sum / Latencies.size();
  Res.MeanQueueDepth =
      DepthSamples ? DepthSum / static_cast<double>(DepthSamples) : 0.0;

  // The shared cache is the table under a byte budget (serving mode);
  // without one the table only holds the paper policy's binaries.
  if (const CodeCache *Cache = E.codeCache(); Cache->budgetBytes()) {
    Res.CacheEnabled = true;
    Res.Cache = Cache->stats();
    uint64_t Looked = Res.Cache.Hits + Res.Cache.Misses;
    Res.CacheHitRate =
        Looked ? static_cast<double>(Res.Cache.Hits) / Looked : 0.0;
    Res.ResidentCodeBytes = Cache->residentBytes();
    Res.CacheBudgetBytes = Cache->budgetBytes();
    Res.CacheEntries = Cache->size();
  }
  Res.Engine = E.stats();
  return Res;
}
