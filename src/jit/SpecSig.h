//===- jit/SpecSig.h - Specialization signatures and matching ---*- C++ -*-===//
///
/// \file
/// The dispatch key of one specialized binary: what each parameter (or,
/// for OSR signatures, each frame slot) must look like for the binary to
/// be reusable. The engine's specialization table (jit/CodeCache.h) keys
/// every specialized binary on one, so a body compiled for one caller —
/// or one serving session — answers any later call with an equivalent
/// signature.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_JIT_SPECSIG_H
#define JITVS_JIT_SPECSIG_H

#include "mir/Tier.h"
#include "vm/Value.h"

#include <vector>

namespace jitvs {

/// One parameter's slice of a specialization signature: the tier plus the
/// fact the binary depends on at that tier (exact value, or tag only).
struct ParamSig {
  ParamTier Tier = ParamTier::Value;
  /// Value tier only: the baked-in value (GC-rooted by whoever owns the
  /// signature — EngineRoots for engine/cache signatures). Undefined for
  /// the other tiers so dead objects are not kept alive.
  Value V = Value::undefined();
  /// Type tier only: the guarded tag.
  ValueTag Tag = ValueTag::Undefined;
};

/// An all-Value signature is the paper's policy.
using SpecSig = std::vector<ParamSig>;

/// Builds the dispatch signature for \p Args under \p Tiers (nullptr =
/// all value-tier, the paper's behavior). Value entries keep the value;
/// type entries keep only the tag.
SpecSig makeSpecSig(const std::vector<ParamTier> *Tiers, const Value *Args,
                    size_t NumArgs);

/// \returns true when \p Args satisfy \p Sig (value entries compare by
/// Value::sameSpecializationValue, type entries by tag, generic entries
/// always match).
bool specSigMatches(const SpecSig &Sig, const Value *Args, size_t NumArgs);

/// Strongest tier present in \p Sig (Value beats Type beats Generic);
/// classifies a binary for the hit-split counters. The degenerate
/// zero-parameter signature counts as Generic here; callers treat it as
/// (vacuously) value-specialized where the paper policy does.
ParamTier specSigTier(const SpecSig &Sig);

} // namespace jitvs

#endif // JITVS_JIT_SPECSIG_H
