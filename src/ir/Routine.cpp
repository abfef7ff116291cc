//===- ir/Routine.cpp -----------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "ir/Routine.h"

using namespace scmo;

std::unique_ptr<RoutineBody> scmo::copyRoutineBody(const RoutineBody &Src,
                                                   MemoryTracker *Tracker) {
  auto Out = std::make_unique<RoutineBody>(Tracker);
  Out->NumParams = Src.NumParams;
  Out->NextReg = Src.NextReg;
  Out->SourceLines = Src.SourceLines;
  Out->HasProfile = Src.HasProfile;
  // Only the live instructions are copied, so the source's garbage and slab
  // tails stay behind.
  uint64_t NumInstrs = 0, NumArgs = 0;
  for (const BasicBlock &SB : Src.Blocks) {
    NumInstrs += SB.Instrs.size();
    for (const Instr *SI : SB.Instrs)
      NumArgs += SI->NumArgs;
  }
  Out->reserveExact(NumInstrs, NumArgs);
  Out->Blocks.resize(Src.Blocks.size());
  for (BlockId B = 0; B != Src.Blocks.size(); ++B) {
    const BasicBlock &SB = Src.Blocks[B];
    BasicBlock &DB = Out->Blocks[B];
    DB.Freq = SB.Freq;
    DB.TakenFreq = SB.TakenFreq;
    DB.Instrs.reserve(SB.Instrs.size());
    for (const Instr *SI : SB.Instrs) {
      Instr *NI = Out->newInstr(SI->Op);
      *NI = *SI;
      if (SI->NumArgs) {
        NI->Args = Out->newArgArray(SI->NumArgs);
        for (unsigned A = 0; A != SI->NumArgs; ++A)
          NI->Args[A] = SI->Args[A];
      }
      DB.Instrs.push_back(NI);
    }
  }
  return Out;
}
