//===- lir/Codegen.h - MIR -> native code generation ------------*- C++ -*-===//
///
/// \file
/// The backend: lowers MIR to virtual-register LIR, resolves phis into
/// parallel moves on split edges, runs liveness analysis (live ranges
/// with lifetime holes), coalesces moves, allocates registers by linear
/// scan (13 allocatable registers, spill slots with explicit load/store
/// code, constants rematerialized instead of spilled), and emits the
/// final NativeCode with bailout snapshots and GC stack maps.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_LIR_CODEGEN_H
#define JITVS_LIR_CODEGEN_H

#include "native/NativeCode.h"

#include <memory>

namespace jitvs {

class MIRGraph;

/// Statistics from one code generation run.
struct CodegenStats {
  uint32_t NumVirtualRegs = 0;
  uint32_t NumSpills = 0; ///< Spill slots in the frame.
  uint32_t NumInstructions = 0;
};

/// Generates executable native code for \p Graph.
std::unique_ptr<NativeCode> generateCode(MIRGraph &Graph,
                                         CodegenStats *Stats = nullptr);

} // namespace jitvs

#endif // JITVS_LIR_CODEGEN_H
