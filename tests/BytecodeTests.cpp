//===- tests/BytecodeTests.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compact relocatable encoding and IL object files. The central property:
/// compact -> expand is the identity on everything the optimizer can
/// observe, for *any* valid body (randomized bodies included) — the paper's
/// determinism requirement hinges on it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bytecode/Compact.h"
#include "bytecode/ObjectFile.h"
#include "frontend/Frontend.h"
#include "support/VarInt.h"

#include <gtest/gtest.h>

using namespace scmo;
using namespace scmo::test;

TEST(Compact, EmptyishBodyRoundTrips) {
  RoutineBody Body;
  Body.NumParams = 2;
  Body.NextReg = 2;
  Body.newBlock();
  Instr *Ret = Body.newInstr(Opcode::Ret);
  Ret->A = Operand::reg(0);
  Body.Blocks[0].Instrs.push_back(Ret);
  auto Bytes = compactRoutine(Body);
  auto Out = expandRoutine(Bytes, nullptr);
  ASSERT_NE(Out, nullptr);
  std::string Why;
  EXPECT_TRUE(bodiesEqual(Body, *Out, &Why)) << Why;
}

/// Property test: random bodies round-trip exactly, with and without profile
/// annotations.
TEST(Compact, RandomBodiesRoundTripExactly) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Prng Rng(Seed);
    auto Body = randomBody(Rng, /*NumGlobals=*/8, /*NumRoutines=*/5,
                           /*WithProfile=*/Seed % 2 == 0);
    auto Bytes = compactRoutine(*Body);
    auto Out = expandRoutine(Bytes, nullptr);
    ASSERT_NE(Out, nullptr) << "seed " << Seed;
    std::string Why;
    EXPECT_TRUE(bodiesEqual(*Body, *Out, &Why)) << "seed " << Seed << ": "
                                                << Why;
  }
}

TEST(Compact, DoubleRoundTripIsStable) {
  Prng Rng(99);
  auto Body = randomBody(Rng, 4, 4, true);
  auto Bytes1 = compactRoutine(*Body);
  auto Out1 = expandRoutine(Bytes1, nullptr);
  ASSERT_NE(Out1, nullptr);
  auto Bytes2 = compactRoutine(*Out1);
  EXPECT_EQ(Bytes1, Bytes2); // Byte-identical re-encoding (determinism).
}

TEST(Compact, CompactFormIsSubstantiallySmaller) {
  Prng Rng(7);
  auto Body = randomBody(Rng, 8, 5, false);
  MemoryTracker T;
  // Re-expand into a tracked arena to get an expanded-size measurement.
  auto Bytes = compactRoutine(*Body);
  auto Expanded = expandRoutine(Bytes, &T);
  ASSERT_NE(Expanded, nullptr);
  // The paper's ratio: ~1.7KB/line expanded vs ~0.9KB/line compacted — we
  // expect at least 3x here since expanded Instr objects are padded structs.
  EXPECT_LT(Bytes.size() * 3, Expanded->irBytes());
}

TEST(Compact, SymbolRemappingApplies) {
  RoutineBody Body;
  Body.NumParams = 0;
  Body.NextReg = 1;
  Body.newBlock();
  Instr *Load = Body.newInstr(Opcode::LoadG);
  Load->Dst = 0;
  Load->Sym = 3;
  Body.Blocks[0].Instrs.push_back(Load);
  Instr *Ret = Body.newInstr(Opcode::Ret);
  Ret->A = Operand::reg(0);
  Body.Blocks[0].Instrs.push_back(Ret);

  SymRemap Enc;
  Enc.Global = [](GlobalId G) { return G + 100; };
  auto Bytes = compactRoutine(Body, Enc);
  SymRemap Dec;
  Dec.Global = [](GlobalId G) { return G - 100; };
  auto Out = expandRoutine(Bytes, nullptr, Dec);
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(Out->Blocks[0].Instrs[0]->Sym, 3u);
}

TEST(Compact, TruncatedInputYieldsNull) {
  Prng Rng(5);
  auto Body = randomBody(Rng, 2, 2, false);
  auto Bytes = compactRoutine(*Body);
  for (size_t Cut : {size_t(1), Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_EQ(expandRoutine(Truncated, nullptr), nullptr)
        << "cut at " << Cut;
  }
}

TEST(Compact, GarbageInputYieldsNull) {
  std::vector<uint8_t> Garbage = {0xff, 0xfe, 0x01, 0x80, 0x80, 0x80};
  EXPECT_EQ(expandRoutine(Garbage, nullptr), nullptr);
}

TEST(Compact, ExpandedBodyIsOneExactSlab) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Prng Rng(Seed);
    auto Body = randomBody(Rng, 4, 4, Seed % 2 == 0);
    auto Out = expandRoutine(compactRoutine(*Body), nullptr);
    ASSERT_NE(Out, nullptr) << "seed " << Seed;
    if (!Out->instrCount())
      continue; // Nothing to hold: no slab at all.
    EXPECT_EQ(Out->arena().slabCount(), 1u) << "seed " << Seed;
    EXPECT_EQ(Out->arena().bytesAllocated(), Out->arena().usedBytes())
        << "seed " << Seed;
  }
}

namespace {

/// A version-2 image header with the given counts and nothing after it.
std::vector<uint8_t> imageHeader(uint64_t Instrs, uint64_t Args,
                                 uint64_t Blocks) {
  std::vector<uint8_t> Out;
  encodeVarUInt(Out, 2); // FormatVersion
  encodeVarUInt(Out, 0); // NumParams
  encodeVarUInt(Out, 0); // NextReg
  encodeVarUInt(Out, 0); // SourceLines
  Out.push_back(0);      // HasProfile
  encodeVarUInt(Out, Instrs);
  encodeVarUInt(Out, Args);
  encodeVarUInt(Out, Blocks);
  return Out;
}

} // namespace

TEST(Compact, HugeBlockCountYieldsNull) {
  // A short image declaring 2^32-1 blocks used to reach Blocks.resize and
  // abort with std::bad_alloc.
  std::vector<uint8_t> Image = imageHeader(0, 0, 0xffffffffu);
  EXPECT_LE(Image.size(), 12u);
  EXPECT_EQ(expandRoutine(Image, nullptr), nullptr);
}

TEST(Compact, HugeSizeHeaderYieldsNull) {
  EXPECT_EQ(expandRoutine(imageHeader(uint64_t(1) << 40, 0, 1), nullptr),
            nullptr);
  EXPECT_EQ(expandRoutine(imageHeader(0, uint64_t(1) << 40, 1), nullptr),
            nullptr);
  EXPECT_EQ(expandRoutine(imageHeader(~uint64_t(0), ~uint64_t(0), 1),
                          nullptr),
            nullptr);
}

TEST(Compact, SizeHeaderMustMatchTheBody) {
  Prng Rng(3);
  auto Body = randomBody(Rng, 2, 2, false);
  ASSERT_GT(Body->instrCount(), 0u);
  std::vector<uint8_t> Good = compactRoutine(*Body);
  ASSERT_NE(expandRoutine(Good, nullptr), nullptr);
  // Byte 5 is the instruction total (one byte for this small body): an
  // image that under- or over-states it is corrupt.
  ASSERT_EQ(Good[5], Body->instrCount());
  for (int Delta : {-1, 1}) {
    std::vector<uint8_t> Bad = Good;
    Bad[5] = static_cast<uint8_t>(Bad[5] + Delta);
    EXPECT_EQ(expandRoutine(Bad, nullptr), nullptr) << "delta " << Delta;
  }
}

TEST(Compact, OtherFormatVersionsYieldNull) {
  Prng Rng(4);
  std::vector<uint8_t> Image = compactRoutine(*randomBody(Rng, 2, 2, false));
  for (uint8_t Version : {0, 1, 3}) {
    Image[0] = Version;
    EXPECT_EQ(expandRoutine(Image, nullptr), nullptr) << int(Version);
  }
}

TEST(Compact, ChargesTrackerOnExpand) {
  Prng Rng(11);
  auto Body = randomBody(Rng, 2, 2, false);
  auto Bytes = compactRoutine(*Body);
  MemoryTracker T;
  auto Out = expandRoutine(Bytes, &T);
  ASSERT_NE(Out, nullptr);
  EXPECT_GT(T.liveBytes(MemCategory::HloIr), 0u);
  Out.reset();
  EXPECT_EQ(T.liveBytes(MemCategory::HloIr), 0u);
}

//===----------------------------------------------------------------------===//
// Object files
//===----------------------------------------------------------------------===//

namespace {

const char *LibSrc = R"(
global shared = 9;
static hidden;
func add2(a, b) { return a + b; }
static func helper(x) { return x * shared; }
func uselib(x) { hidden = x; return helper(add2(x, 1)); }
)";

const char *AppSrc = R"(
func main() {
  print uselib(4);
  print add2(10, 20);
  return 0;
}
)";

} // namespace

TEST(ObjectFile, WholeModuleRoundTripPreservesBodies) {
  Program P1;
  FrontendResult FR = compileSource(P1, "lib", LibSrc);
  ASSERT_TRUE(FR.Ok) << FR.Error;
  std::vector<uint8_t> Obj = writeObject(P1, FR.Module);
  EXPECT_GT(Obj.size(), 0u);

  Program P2;
  std::string Err;
  ModuleId M2 = readObject(P2, Obj, Err);
  ASSERT_NE(M2, InvalidId) << Err;
  EXPECT_EQ(P2.module(M2).SourceLines, P1.module(FR.Module).SourceLines);
  // Per-routine structural equality.
  for (const char *Name : {"add2", "uselib"}) {
    RoutineId R1 = P1.findRoutine(Name);
    RoutineId R2 = P2.findRoutine(Name);
    ASSERT_NE(R1, InvalidId);
    ASSERT_NE(R2, InvalidId);
    std::string Why;
    EXPECT_TRUE(bodiesEqual(P1.body(R1), P2.body(R2), &Why))
        << Name << ": " << Why;
  }
  // Debug records survive.
  EXPECT_EQ(P2.module(M2).Symtab.records().size(),
            P1.module(FR.Module).Symtab.records().size());
}

TEST(ObjectFile, ExternsLinkAcrossObjects) {
  // Compile modules into separate programs, write objects, link both into a
  // third program — the separate-compilation flow.
  std::vector<std::vector<uint8_t>> Objects;
  for (const auto &[Name, Src] :
       std::vector<std::pair<std::string, const char *>>{{"lib", LibSrc},
                                                         {"app", AppSrc}}) {
    Program P;
    FrontendResult FR = compileSource(P, Name, Src);
    ASSERT_TRUE(FR.Ok) << FR.Error;
    Objects.push_back(writeObject(P, FR.Module));
  }
  Program Linked;
  std::string Err;
  for (const auto &Obj : Objects)
    ASSERT_NE(readObject(Linked, Obj, Err), InvalidId) << Err;
  RoutineId Main = Linked.findRoutine("main");
  RoutineId Uselib = Linked.findRoutine("uselib");
  ASSERT_NE(Main, InvalidId);
  ASSERT_NE(Uselib, InvalidId);
  EXPECT_TRUE(Linked.routine(Uselib).IsDefined);
  // The app's call to uselib must reference the same routine id.
  bool Found = false;
  for (const Instr *I : Linked.body(Main).Blocks[0].Instrs)
    if (I->Op == Opcode::Call && I->Sym == Uselib)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(ObjectFile, BadMagicIsRejected) {
  Program P;
  std::string Err;
  std::vector<uint8_t> Junk = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(readObject(P, Junk, Err), InvalidId);
  EXPECT_FALSE(Err.empty());
}

TEST(ObjectFile, DuplicateDefinitionIsRejected) {
  Program P1;
  FrontendResult FR = compileSource(P1, "lib", LibSrc);
  ASSERT_TRUE(FR.Ok);
  std::vector<uint8_t> Obj = writeObject(P1, FR.Module);
  Program P2;
  std::string Err;
  ASSERT_NE(readObject(P2, Obj, Err), InvalidId) << Err;
  EXPECT_EQ(readObject(P2, Obj, Err), InvalidId); // Same externs again.
  EXPECT_NE(Err.find("duplicate"), std::string::npos) << Err;
}

TEST(ObjectFile, FileIoRoundTrip) {
  std::vector<uint8_t> Bytes = {0, 1, 2, 255, 128, 7};
  std::string Path = "/tmp/scmo-test-obj.bin";
  ASSERT_TRUE(writeFile(Path, Bytes));
  std::vector<uint8_t> Read;
  ASSERT_TRUE(readFile(Path, Read));
  EXPECT_EQ(Read, Bytes);
  std::remove(Path.c_str());
  EXPECT_FALSE(readFile(Path, Read));
}
