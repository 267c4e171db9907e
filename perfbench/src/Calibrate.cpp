//===- perfbench/src/Calibrate.cpp - Host-speed calibration ---------------===//

#include "Calibrate.h"

#include <time.h>

#include <algorithm>

namespace perfbench {

int64_t clockNs() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

namespace {

constexpr uint32_t ChainLen = 1u << 20; // 4 MiB of uint32_t

uint64_t mix(uint64_t X) {
  X ^= X >> 31;
  X *= 0x7fb5d329728ea185ull;
  X ^= X >> 27;
  return X;
}

} // namespace

Calibrator::Calibrator() : Chain(ChainLen) {
  // One random cycle through every slot (Sattolo's algorithm), so the
  // dependent loads below miss the private caches as a heap walk does.
  for (uint32_t I = 0; I != ChainLen; ++I)
    Chain[I] = I;
  uint64_t S = 0x63616c6962ull;
  for (uint32_t I = ChainLen - 1; I > 0; --I) {
    S = mix(S + I);
    std::swap(Chain[I], Chain[S % I]);
  }
}

int64_t Calibrator::run(uint64_t Mark) {
  int64_t T0 = clockNs();
  // The three things jitvs spends its time on, in fixed amounts: integer
  // arithmetic, dependent loads over a large heap, and a dispatch loop
  // with data-dependent branches.
  uint64_t X = Sink | 1;
  for (int I = 0; I != 30000; ++I)
    X = mix(X + I);
  uint32_t J = static_cast<uint32_t>(X) & (ChainLen - 1);
  for (int I = 0; I != 6000; ++I)
    J = Chain[J];
  uint64_t Acc = J;
  for (int I = 0; I != 60000; ++I) {
    switch ((Acc >> 7) & 7) {
    case 0: Acc += 0x9e37; break;
    case 1: Acc ^= Acc << 3; break;
    case 2: Acc -= I; break;
    case 3: Acc = Acc * 5 + 1; break;
    case 4: Acc ^= Acc >> 5; break;
    case 5: Acc += Chain[Acc & 1023]; break;
    case 6: Acc = ~Acc; break;
    default: Acc += X; break;
    }
  }
  Sink += Acc;
  int64_t Ns = clockNs() - T0;
  Records.push_back({Mark, Ns});
  return Ns;
}

double Calibrator::medianNs(uint64_t From, uint64_t To) const {
  std::vector<int64_t> Ns;
  for (const Record &R : Records)
    if (R.Mark >= From && R.Mark < To)
      Ns.push_back(R.Ns);
  if (Ns.empty())
    for (const Record &R : Records)
      Ns.push_back(R.Ns);
  if (Ns.empty())
    return CalibRefNs;
  std::nth_element(Ns.begin(), Ns.begin() + Ns.size() / 2, Ns.end());
  return static_cast<double>(Ns[Ns.size() / 2]);
}

} // namespace perfbench
