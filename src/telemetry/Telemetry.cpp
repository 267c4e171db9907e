//===- telemetry/Telemetry.cpp - Event recording and exporters ------------===//

#include "telemetry/Telemetry.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>

using namespace jitvs;

uint32_t jitvs::telemetry_detail::ActiveMask = 0;

const char *jitvs::telemetryCategoryName(uint32_t CategoryBit) {
  switch (CategoryBit) {
  case TelCompile:
    return "compile";
  case TelPass:
    return "pass";
  case TelBailout:
    return "bailout";
  case TelCache:
    return "cache";
  case TelOsr:
    return "osr";
  case TelScript:
    return "script";
  case TelBench:
    return "bench";
  default:
    return "?";
  }
}

uint32_t jitvs::parseTelemetryCategories(const char *Spec) {
  return parseTelemetryCategories(Spec, nullptr);
}

uint32_t
jitvs::parseTelemetryCategories(const char *Spec,
                                std::vector<std::string> *UnknownOut) {
  if (!Spec)
    return 0;
  uint32_t Mask = 0;
  std::string Word;
  auto Apply = [&Mask, UnknownOut](const std::string &W) {
    if (W.empty())
      return;
    if (W == "all") {
      Mask |= TelAll;
      return;
    }
    for (uint32_t Bit = 1; Bit < TelAll; Bit <<= 1)
      if (W == telemetryCategoryName(Bit)) {
        Mask |= Bit;
        return;
      }
    if (UnknownOut)
      UnknownOut->push_back(W);
  };
  for (const char *P = Spec;; ++P) {
    if (*P == ',' || *P == '\0') {
      Apply(Word);
      Word.clear();
      if (*P == '\0')
        break;
    } else if (*P != ' ') {
      Word += *P;
    }
  }
  return Mask;
}

const char *jitvs::telemetryEventKindName(TelemetryEventKind K) {
  switch (K) {
  case TelemetryEventKind::CompileStart:
    return "compile-start";
  case TelemetryEventKind::CompileEnd:
    return "compile";
  case TelemetryEventKind::Pass:
    return "pass";
  case TelemetryEventKind::CacheHit:
    return "cache-hit";
  case TelemetryEventKind::Despecialize:
    return "despecialize";
  case TelemetryEventKind::Discard:
    return "discard";
  case TelemetryEventKind::TierTransition:
    return "tier-transition";
  case TelemetryEventKind::Bailout:
    return "bailout";
  case TelemetryEventKind::OsrEntry:
    return "osr-entry";
  case TelemetryEventKind::Script:
    return "script";
  case TelemetryEventKind::BenchRun:
    return "bench-run";
  }
  return "?";
}

uint32_t jitvs::telemetryEventCategory(TelemetryEventKind K) {
  switch (K) {
  case TelemetryEventKind::CompileStart:
  case TelemetryEventKind::CompileEnd:
    return TelCompile;
  case TelemetryEventKind::Pass:
    return TelPass;
  case TelemetryEventKind::CacheHit:
  case TelemetryEventKind::Despecialize:
  case TelemetryEventKind::Discard:
  case TelemetryEventKind::TierTransition:
    return TelCache;
  case TelemetryEventKind::Bailout:
    return TelBailout;
  case TelemetryEventKind::OsrEntry:
    return TelOsr;
  case TelemetryEventKind::Script:
    return TelScript;
  case TelemetryEventKind::BenchRun:
    return TelBench;
  }
  return 0;
}

namespace {

bool isSpanKind(TelemetryEventKind K) {
  switch (K) {
  case TelemetryEventKind::CompileEnd:
  case TelemetryEventKind::Pass:
  case TelemetryEventKind::Script:
  case TelemetryEventKind::BenchRun:
    return true;
  default:
    return false;
  }
}

} // namespace

Telemetry::Telemetry() : EpochNs(monotonicNowNs()) {
  Ring.resize(DefaultCapacity);
}

Telemetry &Telemetry::instance() {
  static Telemetry T;
  return T;
}

uint64_t Telemetry::nowNs() const { return monotonicNowNs() - EpochNs; }

void Telemetry::configure(uint32_t CategoryMask, size_t Capacity) {
  std::lock_guard<std::mutex> Lock(Mu);
  Mask = CategoryMask;
  if (Capacity != 0 && Capacity != Ring.size()) {
    Ring.assign(Capacity, TelemetryEvent());
    Head = Count = 0;
    Dropped = 0;
  }
  telemetry_detail::ActiveMask = Mask | Spew;
}

void Telemetry::setSpewMask(uint32_t CategoryMask) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spew = CategoryMask;
  telemetry_detail::ActiveMask = Mask | Spew;
}

void Telemetry::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Head = Count = 0;
  Dropped = 0;
  Sites.clear();
}

void Telemetry::record(TelemetryEvent E) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t Cat = telemetryEventCategory(E.Kind);
  if (!((Mask | Spew) & Cat))
    return;
  if (E.TimeNs == 0)
    E.TimeNs = nowNs();

  if (Spew & Cat)
    spewEvent(E);
  if (!(Mask & Cat))
    return;

  if (E.Kind == TelemetryEventKind::Bailout) {
    std::string Key = std::string(E.Func) + '@' + std::to_string(E.A);
    BailoutSite &S = Sites[Key];
    if (S.Total == 0) {
      S.Func = E.Func;
      S.NativePc = static_cast<uint32_t>(E.A);
      S.BytecodePc = static_cast<uint32_t>(E.B);
    }
    ++S.Total;
    ++S.ByReason[static_cast<size_t>(E.Reason)];
  }

  Ring[Head] = E;
  Head = (Head + 1) % Ring.size();
  if (Count < Ring.size())
    ++Count;
  else
    ++Dropped;
}

std::vector<TelemetryEvent> Telemetry::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<TelemetryEvent> Out;
  Out.reserve(Count);
  size_t Start = (Head + Ring.size() - Count) % Ring.size();
  for (size_t I = 0; I != Count; ++I)
    Out.push_back(Ring[(Start + I) % Ring.size()]);
  return Out;
}

std::vector<Telemetry::BailoutSite> Telemetry::bailoutSites() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<BailoutSite> Out;
  Out.reserve(Sites.size());
  for (const auto &[Key, S] : Sites)
    Out.push_back(S);
  std::sort(Out.begin(), Out.end(),
            [](const BailoutSite &A, const BailoutSite &B) {
              if (A.Total != B.Total)
                return A.Total > B.Total;
              if (A.Func != B.Func)
                return A.Func < B.Func;
              return A.NativePc < B.NativePc;
            });
  return Out;
}

void Telemetry::spewEvent(const TelemetryEvent &E) const {
  const char *Cat = telemetryCategoryName(telemetryEventCategory(E.Kind));
  switch (E.Kind) {
  case TelemetryEventKind::CompileStart:
    std::fprintf(stderr, "[jitvs %s] start %s (%s%s%s)\n", Cat, E.Func,
                 E.A ? "specialized" : "generic", E.B ? ", osr" : "",
                 E.Detail[0] ? E.Detail : "");
    break;
  case TelemetryEventKind::CompileEnd:
    std::fprintf(stderr,
                 "[jitvs %s] end   %s: %llu instrs, %.3f ms (%s%s)\n", Cat,
                 E.Func, static_cast<unsigned long long>(E.C),
                 static_cast<double>(E.DurNs) / 1e6,
                 E.A ? "specialized" : "generic", E.B ? ", osr" : "");
    break;
  case TelemetryEventKind::Pass:
    std::fprintf(stderr,
                 "[jitvs %s] %s: %s %llu->%llu instrs, %llu guards "
                 "removed, %llu blocks, %.3f ms\n",
                 Cat, E.Func, E.Detail, static_cast<unsigned long long>(E.A),
                 static_cast<unsigned long long>(E.B),
                 static_cast<unsigned long long>(E.C),
                 static_cast<unsigned long long>(E.D),
                 static_cast<double>(E.DurNs) / 1e6);
    break;
  case TelemetryEventKind::CacheHit:
    std::fprintf(stderr, "[jitvs %s] hit %s (same arguments)\n", Cat,
                 E.Func);
    break;
  case TelemetryEventKind::Despecialize:
    std::fprintf(stderr, "[jitvs %s] despecialize %s (%s)\n", Cat, E.Func,
                 E.Detail);
    break;
  case TelemetryEventKind::Discard:
    std::fprintf(stderr, "[jitvs %s] discard %s (%s)\n", Cat, E.Func,
                 E.Detail);
    break;
  case TelemetryEventKind::TierTransition:
    std::fprintf(stderr, "[jitvs %s] tier %s param %llu: %s\n", Cat, E.Func,
                 static_cast<unsigned long long>(E.A), E.Detail);
    break;
  case TelemetryEventKind::Bailout:
    std::fprintf(stderr, "[jitvs %s] %s: %s at npc=%llu (bytecode pc=%llu)\n",
                 Cat, E.Func, bailoutReasonName(E.Reason),
                 static_cast<unsigned long long>(E.A),
                 static_cast<unsigned long long>(E.B));
    break;
  case TelemetryEventKind::OsrEntry:
    std::fprintf(stderr, "[jitvs %s] enter %s at loop pc=%llu\n", Cat,
                 E.Func, static_cast<unsigned long long>(E.A));
    break;
  case TelemetryEventKind::Script:
    std::fprintf(stderr, "[jitvs %s] evaluate: %.3f ms\n", Cat,
                 static_cast<double>(E.DurNs) / 1e6);
    break;
  case TelemetryEventKind::BenchRun:
    std::fprintf(stderr, "[jitvs %s] run %s [%s]: %.3f ms\n", Cat, E.Func,
                 E.Detail, static_cast<double>(E.DurNs) / 1e6);
    break;
  }
}

void Telemetry::writeJson(std::ostream &OS) const {
  OS << "{\"dropped\":" << Dropped << ",\"events\":[";
  bool First = true;
  for (const TelemetryEvent &E : events()) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"kind\":";
    json::writeString(OS, telemetryEventKindName(E.Kind));
    OS << ",\"cat\":";
    json::writeString(OS,
                    telemetryCategoryName(telemetryEventCategory(E.Kind)));
    OS << ",\"tNs\":" << E.TimeNs;
    if (E.DurNs)
      OS << ",\"durNs\":" << E.DurNs;
    if (E.Func[0]) {
      OS << ",\"func\":";
      json::writeString(OS, E.Func);
    }
    if (E.Detail[0]) {
      OS << ",\"detail\":";
      json::writeString(OS, E.Detail);
    }
    if (E.Kind == TelemetryEventKind::Bailout) {
      OS << ",\"reason\":";
      json::writeString(OS, bailoutReasonName(E.Reason));
    }
    OS << ",\"a\":" << E.A << ",\"b\":" << E.B << ",\"c\":" << E.C
       << ",\"d\":" << E.D << '}';
  }
  OS << "],\"bailoutSites\":[";
  First = true;
  for (const BailoutSite &S : bailoutSites()) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"func\":";
    json::writeString(OS, S.Func);
    OS << ",\"nativePc\":" << S.NativePc
       << ",\"bytecodePc\":" << S.BytecodePc << ",\"total\":" << S.Total
       << ",\"byReason\":{";
    bool FirstR = true;
    for (size_t R = 0; R != NumBailoutReasons; ++R) {
      if (!S.ByReason[R])
        continue;
      if (!FirstR)
        OS << ',';
      FirstR = false;
      json::writeString(OS,
                      bailoutReasonName(static_cast<BailoutReason>(R)));
      OS << ':' << S.ByReason[R];
    }
    OS << "}}";
  }
  OS << "]}";
}

void Telemetry::writeChromeTrace(std::ostream &OS) const {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Metadata events first, so Perfetto/chrome://tracing labels the track
  // instead of showing bare pid/tid numbers.
  OS << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"jitvs\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"engine\"}}";
  bool First = false;
  auto WriteTsUs = [&OS](uint64_t Ns) {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                  static_cast<unsigned long long>(Ns / 1000),
                  static_cast<unsigned long long>(Ns % 1000));
    OS << Buf; // ns -> fractional microseconds.
  };
  auto Common = [&](const TelemetryEvent &E, const char *Name) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"name\":";
    json::writeString(OS, Name);
    OS << ",\"cat\":";
    json::writeString(OS,
                    telemetryCategoryName(telemetryEventCategory(E.Kind)));
    OS << ",\"pid\":1,\"tid\":1,\"ts\":";
    // Events are stamped when recorded, i.e. at span *end*; Chrome wants
    // a complete event's ts at the span start.
    uint64_t Start = isSpanKind(E.Kind) && E.TimeNs >= E.DurNs
                         ? E.TimeNs - E.DurNs
                         : E.TimeNs;
    WriteTsUs(Start);
  };
  // Running totals rendered as a counter track alongside the spans.
  uint64_t Compiles = 0, Bailouts = 0, CacheHits = 0;
  auto Counter = [&](uint64_t TsNs) {
    OS << ",{\"name\":\"engine totals\",\"ph\":\"C\",\"pid\":1,\"ts\":";
    WriteTsUs(TsNs);
    OS << ",\"args\":{\"compiles\":" << Compiles
       << ",\"bailouts\":" << Bailouts << ",\"cacheHits\":" << CacheHits
       << "}}";
  };
  for (const TelemetryEvent &E : events()) {
    // CompileStart is subsumed by the CompileEnd span in a timeline view.
    if (E.Kind == TelemetryEventKind::CompileStart)
      continue;
    std::string Name = telemetryEventKindName(E.Kind);
    if (E.Kind == TelemetryEventKind::Pass)
      Name = E.Detail;
    if (E.Func[0]) {
      Name += ' ';
      Name += E.Func;
    }
    Common(E, Name.c_str());
    if (isSpanKind(E.Kind)) {
      OS << ",\"ph\":\"X\",\"dur\":";
      WriteTsUs(E.DurNs);
    } else {
      OS << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    OS << ",\"args\":{";
    bool FirstA = true;
    auto Arg = [&](const char *K, const std::string &V, bool Quote) {
      if (!FirstA)
        OS << ',';
      FirstA = false;
      json::writeString(OS, K);
      OS << ':';
      if (Quote)
        json::writeString(OS, V);
      else
        OS << V;
    };
    if (E.Detail[0] && E.Kind != TelemetryEventKind::Pass)
      Arg("detail", E.Detail, true);
    if (E.Kind == TelemetryEventKind::Bailout) {
      Arg("reason", bailoutReasonName(E.Reason), true);
      Arg("nativePc", std::to_string(E.A), false);
      Arg("bytecodePc", std::to_string(E.B), false);
    } else if (E.Kind == TelemetryEventKind::Pass) {
      Arg("instrsBefore", std::to_string(E.A), false);
      Arg("instrsAfter", std::to_string(E.B), false);
      Arg("guardsRemoved", std::to_string(E.C), false);
      Arg("blocks", std::to_string(E.D), false);
    } else if (E.Kind == TelemetryEventKind::CompileEnd) {
      Arg("specialized", E.A ? "true" : "false", false);
      Arg("osr", E.B ? "true" : "false", false);
      Arg("codeSizeInstrs", std::to_string(E.C), false);
    } else if (E.Kind == TelemetryEventKind::OsrEntry) {
      Arg("loopPc", std::to_string(E.A), false);
    } else if (E.Kind == TelemetryEventKind::TierTransition) {
      Arg("paramIndex", std::to_string(E.A), false);
    }
    OS << "}}";
    switch (E.Kind) {
    case TelemetryEventKind::CompileEnd:
      ++Compiles;
      Counter(E.TimeNs);
      break;
    case TelemetryEventKind::Bailout:
      ++Bailouts;
      Counter(E.TimeNs);
      break;
    case TelemetryEventKind::CacheHit:
      ++CacheHits;
      Counter(E.TimeNs);
      break;
    default:
      break;
    }
  }
  OS << "]}";
}

bool Telemetry::writeJsonFile(const std::string &Path) const {
  return json::writeFile(Path, "jitvs telemetry",
                         [this](std::ostream &OS) { writeJson(OS); });
}

bool Telemetry::writeChromeTraceFile(const std::string &Path) const {
  return json::writeFile(Path, "jitvs telemetry", [this](std::ostream &OS) {
    writeChromeTrace(OS);
  });
}

// --- Environment activation -------------------------------------------------
//
// JITVS_SPEW=cat,cat   echo matching events to stderr as they happen.
// JITVS_TRACE=f.json   record all categories; Chrome trace written at exit.
// JITVS_TRACE_JSON=f   record all categories; raw JSON written at exit.

namespace {

struct TelemetryEnvInit {
  TelemetryEnvInit() {
    Telemetry &T = Telemetry::instance();
    if (const char *SpewSpec = std::getenv("JITVS_SPEW")) {
      std::vector<std::string> Unknown;
      T.setSpewMask(parseTelemetryCategories(SpewSpec, &Unknown));
      for (const std::string &W : Unknown) {
        std::fprintf(stderr,
                     "jitvs telemetry: unknown JITVS_SPEW category '%s' "
                     "(valid:",
                     W.c_str());
        for (uint32_t Bit = 1; Bit < TelAll; Bit <<= 1)
          std::fprintf(stderr, " %s", telemetryCategoryName(Bit));
        std::fprintf(stderr, " all)\n");
      }
    }
    bool WantDump = std::getenv("JITVS_TRACE") != nullptr ||
                    std::getenv("JITVS_TRACE_JSON") != nullptr;
    if (WantDump) {
      T.configure(TelAll);
      std::atexit([] {
        Telemetry &T = Telemetry::instance();
        if (const char *Path = std::getenv("JITVS_TRACE"))
          if (T.writeChromeTraceFile(Path))
            std::fprintf(stderr, "jitvs telemetry: Chrome trace written to "
                                 "%s (%zu events, %llu dropped)\n",
                         Path, T.size(),
                         static_cast<unsigned long long>(T.dropped()));
        if (const char *Path = std::getenv("JITVS_TRACE_JSON"))
          if (T.writeJsonFile(Path))
            std::fprintf(stderr,
                         "jitvs telemetry: JSON written to %s\n", Path);
      });
    }
  }
};

TelemetryEnvInit InitTelemetryFromEnv;

} // namespace
