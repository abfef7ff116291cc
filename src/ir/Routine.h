//===- ir/Routine.h ---------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expanded in-memory form of a routine's IL (paper Figure 3: a
/// "transitory" object). Each routine body owns an arena holding its
/// instructions; the whole pool can be compacted to the relocatable form and
/// later re-expanded by the NAIM loader.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_IR_ROUTINE_H
#define SCMO_IR_ROUTINE_H

#include "ir/Instr.h"
#include "support/Arena.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace scmo {

/// A basic block: a straight-line instruction sequence ending in exactly one
/// terminator. Blocks carry their correlated profile counts directly (the
/// counts travel with the IR through transformations, unlike derived data).
struct BasicBlock {
  std::vector<Instr *> Instrs;

  /// Execution count from the correlated profile (0 if none / cold).
  uint64_t Freq = 0;

  /// For a block ending in Br: number of times the branch was taken.
  uint64_t TakenFreq = 0;

  /// Returns the terminator, or null for a block under construction.
  Instr *terminator() const {
    if (Instrs.empty() || !Instrs.back()->isTerm())
      return nullptr;
    return Instrs.back();
  }
};

/// Expanded routine body: blocks + the arena the instructions live in.
class RoutineBody {
public:
  /// Creates an empty body charging IR bytes to \p Tracker (may be null)
  /// under \p Cat.
  explicit RoutineBody(MemoryTracker *Tracker = nullptr,
                       MemCategory Cat = MemCategory::HloIr)
      : IrArena(Tracker, Cat, /*SlabSize=*/8 * 1024) {}

  std::vector<BasicBlock> Blocks;

  /// Number of incoming parameters; they occupy registers [0, NumParams).
  uint32_t NumParams = 0;

  /// Next unassigned virtual register.
  uint32_t NextReg = 0;

  /// Source lines attributed to this routine (for LoC accounting).
  uint32_t SourceLines = 0;

  /// True once profile counts have been correlated onto the blocks.
  bool HasProfile = false;

  /// Allocates a fresh instruction in the body's arena.
  Instr *newInstr(Opcode Op) {
    Instr *I = IrArena.create<Instr>();
    I->Op = Op;
    return I;
  }

  /// Allocates an argument array for a call.
  Operand *newArgArray(uint16_t N) {
    return N ? IrArena.allocateArray<Operand>(N) : nullptr;
  }

  /// Arena bytes that \p NumInstrs instructions carrying \p NumArgs call
  /// arguments in all occupy.
  static uint64_t irBytesFor(uint64_t NumInstrs, uint64_t NumArgs) {
    static_assert(sizeof(Instr) % alignof(Operand) == 0 &&
                      sizeof(Operand) % alignof(Instr) == 0,
                  "IR objects must pack without padding");
    return NumInstrs * sizeof(Instr) + NumArgs * sizeof(Operand);
  }

  /// Gives a still-empty body one arena slab of exactly the size its
  /// \p NumInstrs instructions and \p NumArgs call arguments need, for
  /// bodies built whole (decode, copy). Later mutation grows the arena.
  void reserveExact(uint64_t NumInstrs, uint64_t NumArgs) {
    IrArena.reserveExact(irBytesFor(NumInstrs, NumArgs));
  }

  /// Empties the body for reuse as a scratch pool: drops every block and
  /// instruction and rewinds the arena, keeping its largest slab.
  void clear() {
    Blocks.clear();
    NumParams = NextReg = SourceLines = 0;
    HasProfile = false;
    IrArena.rewind();
  }

  /// Allocates a fresh virtual register.
  RegId newReg() { return NextReg++; }

  /// Appends a new empty block and returns its id.
  BlockId newBlock() {
    Blocks.emplace_back();
    return static_cast<BlockId>(Blocks.size() - 1);
  }

  /// Access to the underlying arena (for passes that build instructions in
  /// bulk, e.g. the inliner copying a callee).
  Arena &arena() { return IrArena; }
  const Arena &arena() const { return IrArena; }

  /// Bytes of expanded IR held by this body's arena.
  uint64_t irBytes() const { return IrArena.bytesAllocated(); }

  /// Total instruction count across all blocks.
  uint32_t instrCount() const {
    uint32_t N = 0;
    for (const auto &B : Blocks)
      N += static_cast<uint32_t>(B.Instrs.size());
    return N;
  }

  /// Entry block execution count (== routine invocation count when profiled).
  uint64_t entryFreq() const { return Blocks.empty() ? 0 : Blocks[0].Freq; }

private:
  Arena IrArena;
};

/// Deep-copies the live instructions of \p Src into a fresh body charged to
/// \p Tracker, in one arena slab of exactly their size (frontend lowering,
/// clone materialization).
std::unique_ptr<RoutineBody> copyRoutineBody(const RoutineBody &Src,
                                             MemoryTracker *Tracker);

} // namespace scmo

#endif // SCMO_IR_ROUTINE_H
