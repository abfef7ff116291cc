//===- support/MemoryTracker.h ----------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level accounting of optimizer memory, by category. The paper's
/// Figures 4 and 5 plot "HLO memory" and "overall compiler memory"; this
/// tracker is the measurement instrument behind those plots. It also models
/// the HP-UX ~1GB hard heap limit (Section 5: pure-CMO compiles of Mcad1
/// "exhaust the heap after allocating roughly 1GB") via an optional cap.
///
/// All counters are atomic so the parallel backend's per-routine LLO tasks
/// can charge and sample concurrently; on a single thread the arithmetic is
/// identical to the plain-integer version, so serial (--jobs=1) builds
/// report byte-for-byte the same peaks as before. Under parallel lowering,
/// per-category live/peak totals stay exact (every allocate/release is an
/// atomic read-modify-write); only the *sampled* HLO peak may interleave
/// with concurrent updates, which is inherent to sampling a moving total.
///
/// Beyond the per-category totals, the tracker keeps a per-stage/per-type
/// allocation profile (an MOA-style self-measurement pass): the driver
/// brackets each pipeline stage with pushStage()/popStage(), and every
/// allocate/release lands in a (stage, category) cell. Cell counters are
/// sharded by thread so the profile stays off the parallel backend's hot
/// path; snapshot() merges the shards into a MemoryProfile.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_MEMORYTRACKER_H
#define SCMO_SUPPORT_MEMORYTRACKER_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scmo {

/// Accounting categories for compiler memory. Mirrors the breakdown the
/// paper reports: HLO-owned structures vs the rest of the compiler.
enum class MemCategory : unsigned {
  HloIr,        ///< Expanded HLO IR (routines, blocks, instructions).
  HloSymtab,    ///< Module symbol tables.
  HloGlobal,    ///< Program-wide tables (call graph, program symbol table).
  HloCompact,   ///< Compacted (relocatable) in-memory buffers.
  HloDerived,   ///< Derived analysis data (recomputable).
  Llo,          ///< Low-level optimizer / code generator structures.
  Other,        ///< Everything else (frontend, linker, profile db).
  NumCategories
};

/// Short stable name for a category, used by the stats renderers.
inline const char *memCategoryName(MemCategory Cat) {
  switch (Cat) {
  case MemCategory::HloIr:
    return "hlo-ir";
  case MemCategory::HloSymtab:
    return "hlo-symtab";
  case MemCategory::HloGlobal:
    return "hlo-global";
  case MemCategory::HloCompact:
    return "hlo-compact";
  case MemCategory::HloDerived:
    return "hlo-derived";
  case MemCategory::Llo:
    return "llo";
  case MemCategory::Other:
    return "other";
  case MemCategory::NumCategories:
    break;
  }
  return "?";
}

/// Merged snapshot of the per-stage/per-category allocation profile. Rows
/// are stages in first-push order; columns are MemCategory values.
struct MemoryProfile {
  struct Cell {
    uint64_t Allocs = 0;        ///< Allocation calls charged in this cell.
    uint64_t AllocBytes = 0;    ///< Bytes allocated in this cell.
    uint64_t ReleaseBytes = 0;  ///< Bytes released while the stage ran.
    uint64_t PeakLiveBytes = 0; ///< Max category live observed in the stage.
    uint64_t WasteBytes = 0;    ///< Arena capacity-minus-used noted in stage.
  };

  static constexpr unsigned NumCats =
      static_cast<unsigned>(MemCategory::NumCategories);

  std::vector<std::string> StageNames;
  /// StageNames.size() * NumCats cells, stage-major.
  std::vector<Cell> Cells;
  /// Whole-build arena waste per category (including waste noted outside
  /// any stage scope).
  uint64_t CategoryWaste[NumCats] = {};
  /// Release-underflow diagnostics (see MemoryTracker::release).
  uint64_t UnderflowEvents = 0;
  int UnderflowCategory = -1; ///< First underflowing category, -1 if none.
  /// Slab capacity-minus-used of the IR bodies still resident when the
  /// build ended. Arena::reset notes waste only when a pool is freed, so
  /// without this the tails of every body alive to the end go unreported.
  /// Filled in by the driver, not by snapshot().
  uint64_t ResidentWasteBytes = 0;

  const Cell &cell(unsigned Stage, MemCategory Cat) const {
    return Cells[size_t(Stage) * NumCats + static_cast<unsigned>(Cat)];
  }
  unsigned numStages() const {
    return static_cast<unsigned>(StageNames.size());
  }
};

/// Tracks live and peak bytes per category.
///
/// A single tracker is owned by each CompilerSession so that concurrent
/// sessions (e.g. in tests) do not interfere. The tracker can enforce a hard
/// cap on total live bytes; allocation beyond the cap sets an "exhausted"
/// flag that the driver turns into a compile failure, reproducing the paper's
/// heap-exhaustion behaviour without actually exhausting host memory.
class MemoryTracker {
public:
  MemoryTracker() = default;

  /// Sets a hard cap on total live bytes (0 = unlimited).
  void setHeapCap(uint64_t Bytes) { HeapCap = Bytes; }
  uint64_t heapCap() const { return HeapCap; }

  /// Records an allocation of \p Bytes in \p Cat.
  void allocate(MemCategory Cat, uint64_t Bytes) {
    uint64_t NewCat =
        Live[index(Cat)].fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    uint64_t NewTotal =
        TotalLive.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    raiseToAtLeast(Peak[index(Cat)], NewCat);
    raiseToAtLeast(TotalPeak, NewTotal);
    if (HeapCap && NewTotal > HeapCap)
      Exhausted.store(true, std::memory_order_relaxed);
    int S = CurrentStage.load(std::memory_order_relaxed);
    if (S >= 0) {
      Shard &Sh = Shards[shardIndex()];
      Sh.Allocs[S][index(Cat)].fetch_add(1, std::memory_order_relaxed);
      Sh.AllocBytes[S][index(Cat)].fetch_add(Bytes,
                                             std::memory_order_relaxed);
      raiseToAtLeast(StagePeakLive[S][index(Cat)], NewCat);
    }
  }

  /// Records a release of \p Bytes from \p Cat. An over-release (more bytes
  /// than the category holds) is a caller bug; debug builds assert, release
  /// builds saturate the counters at zero instead of wrapping around — a
  /// wrapped live total would instantly trip the heap cap and poison every
  /// later peak — and record a one-shot diagnostic (underflowEvents()).
  void release(MemCategory Cat, uint64_t Bytes) {
    uint64_t Sub = clampedSub(Live[index(Cat)], Bytes);
    assert(Sub == Bytes && "releasing more than allocated");
    if (Sub != Bytes) {
      UnderflowCount.fetch_add(1, std::memory_order_relaxed);
      int Expected = -1;
      UnderflowCat.compare_exchange_strong(Expected,
                                           static_cast<int>(index(Cat)),
                                           std::memory_order_relaxed);
    }
    clampedSub(TotalLive, Sub);
    int S = CurrentStage.load(std::memory_order_relaxed);
    if (S >= 0)
      Shards[shardIndex()].ReleaseBytes[S][index(Cat)].fetch_add(
          Sub, std::memory_order_relaxed);
  }

  /// Live bytes currently attributed to \p Cat.
  uint64_t liveBytes(MemCategory Cat) const {
    return Live[index(Cat)].load(std::memory_order_relaxed);
  }

  /// Peak bytes ever attributed to \p Cat.
  uint64_t peakBytes(MemCategory Cat) const {
    return Peak[index(Cat)].load(std::memory_order_relaxed);
  }

  /// Total live bytes across all categories.
  uint64_t totalLiveBytes() const {
    return TotalLive.load(std::memory_order_relaxed);
  }

  /// Peak total live bytes across all categories.
  uint64_t totalPeakBytes() const {
    return TotalPeak.load(std::memory_order_relaxed);
  }

  /// Live bytes owned by HLO (the quantity in Figure 4's lower curve).
  uint64_t hloLiveBytes() const {
    return liveBytes(MemCategory::HloIr) + liveBytes(MemCategory::HloSymtab) +
           liveBytes(MemCategory::HloGlobal) +
           liveBytes(MemCategory::HloCompact) +
           liveBytes(MemCategory::HloDerived);
  }

  /// Peak of the HLO-owned live total, updated by takeHloSample().
  uint64_t hloPeakBytes() const {
    return HloPeak.load(std::memory_order_relaxed);
  }

  /// Samples the current HLO live total into the HLO peak. Called by the
  /// driver at phase boundaries; cheap enough to call per-routine.
  void takeHloSample() { raiseToAtLeast(HloPeak, hloLiveBytes()); }

  /// True once an allocation pushed total live bytes past the heap cap.
  bool heapExhausted() const {
    return Exhausted.load(std::memory_order_relaxed);
  }

  /// Forgets peaks and the exhausted flag (live counts are kept). Not
  /// thread-safe: call only between parallel phases.
  void resetPeaks() {
    for (auto &P : Peak)
      P.store(0, std::memory_order_relaxed);
    TotalPeak.store(totalLiveBytes(), std::memory_order_relaxed);
    HloPeak.store(hloLiveBytes(), std::memory_order_relaxed);
    Exhausted.store(false, std::memory_order_relaxed);
  }

  /// \name Stage-scope profile
  /// Stage scopes are pushed/popped by the (serial) pipeline driver only;
  /// worker threads merely read the current stage index while charging.
  /// Nesting is supported: allocations attribute to the innermost scope.
  /// @{

  /// Enters stage \p Name (registering it on first use, first-push order).
  void pushStage(std::string_view Name) {
    unsigned N = NumStages.load(std::memory_order_relaxed);
    unsigned Idx = 0;
    for (; Idx != N; ++Idx)
      if (StageNames[Idx] == Name)
        break;
    if (Idx == N) {
      if (N >= MaxStages) {
        assert(false && "too many distinct stage names");
        Idx = MaxStages - 1;
      } else {
        StageNames[Idx] = std::string(Name);
        NumStages.store(N + 1, std::memory_order_release);
      }
    }
    assert(StackDepth < MaxStageDepth && "stage scopes nested too deep");
    if (StackDepth < MaxStageDepth)
      StageStack[StackDepth++] = static_cast<int>(Idx);
    CurrentStage.store(static_cast<int>(Idx), std::memory_order_relaxed);
  }

  /// Leaves the innermost stage scope.
  void popStage() {
    assert(StackDepth > 0 && "popStage without matching pushStage");
    if (StackDepth > 0)
      --StackDepth;
    CurrentStage.store(StackDepth ? StageStack[StackDepth - 1] : -1,
                       std::memory_order_relaxed);
  }

  /// Name of the innermost active stage, or empty when none.
  std::string_view currentStageName() const {
    int S = CurrentStage.load(std::memory_order_relaxed);
    return S < 0 ? std::string_view() : std::string_view(StageNames[S]);
  }

  /// Records \p Bytes of arena slack (slab capacity never handed out),
  /// charged against the innermost stage and the category's waste total.
  /// Called by Arena::reset, so the waste lands in the stage that *freed*
  /// the pool — the stage whose lifetime the pool was scoped to.
  void noteArenaWaste(MemCategory Cat, uint64_t Bytes) {
    if (!Bytes)
      return;
    CatWaste[index(Cat)].fetch_add(Bytes, std::memory_order_relaxed);
    int S = CurrentStage.load(std::memory_order_relaxed);
    if (S >= 0)
      StageWaste[S][index(Cat)].fetch_add(Bytes, std::memory_order_relaxed);
  }

  /// Whole-build arena waste recorded against \p Cat.
  uint64_t arenaWasteBytes(MemCategory Cat) const {
    return CatWaste[index(Cat)].load(std::memory_order_relaxed);
  }

  /// Number of over-release events absorbed (should be zero; nonzero means
  /// a charge/release imbalance that debug builds would have asserted on).
  uint64_t underflowEvents() const {
    return UnderflowCount.load(std::memory_order_relaxed);
  }

  /// Category of the first over-release, or -1 when none occurred.
  int underflowCategory() const {
    return UnderflowCat.load(std::memory_order_relaxed);
  }

  /// Merges the sharded stage counters into a profile snapshot. Safe to
  /// call concurrently with charging (values are a consistent-enough view
  /// for reporting); typically called once after the pipeline finishes.
  MemoryProfile snapshot() const {
    MemoryProfile P;
    unsigned N = NumStages.load(std::memory_order_acquire);
    P.StageNames.reserve(N);
    for (unsigned S = 0; S != N; ++S)
      P.StageNames.push_back(StageNames[S]);
    P.Cells.resize(size_t(N) * NumCats);
    for (unsigned S = 0; S != N; ++S) {
      for (unsigned C = 0; C != NumCats; ++C) {
        MemoryProfile::Cell &Cell = P.Cells[size_t(S) * NumCats + C];
        for (const Shard &Sh : Shards) {
          Cell.Allocs += Sh.Allocs[S][C].load(std::memory_order_relaxed);
          Cell.AllocBytes +=
              Sh.AllocBytes[S][C].load(std::memory_order_relaxed);
          Cell.ReleaseBytes +=
              Sh.ReleaseBytes[S][C].load(std::memory_order_relaxed);
        }
        Cell.PeakLiveBytes =
            StagePeakLive[S][C].load(std::memory_order_relaxed);
        Cell.WasteBytes = StageWaste[S][C].load(std::memory_order_relaxed);
      }
    }
    for (unsigned C = 0; C != NumCats; ++C)
      P.CategoryWaste[C] = CatWaste[C].load(std::memory_order_relaxed);
    P.UnderflowEvents = underflowEvents();
    P.UnderflowCategory = underflowCategory();
    return P;
  }

  /// @}

private:
  static constexpr unsigned NumCats =
      static_cast<unsigned>(MemCategory::NumCategories);
  static constexpr unsigned MaxStages = 16;
  static constexpr unsigned MaxStageDepth = 8;
  static constexpr unsigned NumShards = 8;

  static unsigned index(MemCategory Cat) {
    return static_cast<unsigned>(Cat);
  }

  /// Shard selection: hash a thread-local address so each thread sticks to
  /// one shard without any registration protocol.
  static unsigned shardIndex() {
    thread_local const char Tag = 0;
    return static_cast<unsigned>(
        (reinterpret_cast<uintptr_t>(&Tag) >> 6) % NumShards);
  }

  /// Lock-free max: raises \p Slot to \p Value unless a concurrent update
  /// already recorded something higher.
  static void raiseToAtLeast(std::atomic<uint64_t> &Slot, uint64_t Value) {
    uint64_t Cur = Slot.load(std::memory_order_relaxed);
    while (Cur < Value &&
           !Slot.compare_exchange_weak(Cur, Value,
                                       std::memory_order_relaxed))
      ;
  }

  /// Subtracts min(\p Slot, \p Bytes) from \p Slot and returns the amount
  /// actually subtracted (the saturating half of release()).
  static uint64_t clampedSub(std::atomic<uint64_t> &Slot, uint64_t Bytes) {
    uint64_t Cur = Slot.load(std::memory_order_relaxed);
    uint64_t Sub;
    do {
      Sub = Cur < Bytes ? Cur : Bytes;
    } while (!Slot.compare_exchange_weak(Cur, Cur - Sub,
                                         std::memory_order_relaxed));
    return Sub;
  }

  /// One thread-shard of stage-cell counters. 64-byte aligned so shards do
  /// not share cache lines across threads.
  struct alignas(64) Shard {
    std::atomic<uint64_t> Allocs[MaxStages][NumCats] = {};
    std::atomic<uint64_t> AllocBytes[MaxStages][NumCats] = {};
    std::atomic<uint64_t> ReleaseBytes[MaxStages][NumCats] = {};
  };

  std::atomic<uint64_t> Live[NumCats] = {};
  std::atomic<uint64_t> Peak[NumCats] = {};
  std::atomic<uint64_t> TotalLive{0};
  std::atomic<uint64_t> TotalPeak{0};
  std::atomic<uint64_t> HloPeak{0};
  uint64_t HeapCap = 0;
  std::atomic<bool> Exhausted{false};

  // Stage profile state. StageNames/StageStack are mutated only by the
  // serial pipeline driver; workers read just the atomic CurrentStage.
  std::string StageNames[MaxStages];
  std::atomic<unsigned> NumStages{0};
  int StageStack[MaxStageDepth] = {};
  unsigned StackDepth = 0;
  std::atomic<int> CurrentStage{-1};
  Shard Shards[NumShards];
  std::atomic<uint64_t> StagePeakLive[MaxStages][NumCats] = {};
  std::atomic<uint64_t> StageWaste[MaxStages][NumCats] = {};
  std::atomic<uint64_t> CatWaste[NumCats] = {};
  std::atomic<uint64_t> UnderflowCount{0};
  std::atomic<int> UnderflowCat{-1};
};

/// RAII stage scope: pushes \p Name for the lifetime of the object. Null
/// tracker is a no-op so optional instrumentation sites stay unconditional.
class StageScope {
public:
  StageScope(MemoryTracker *Tracker, std::string_view Name)
      : Tracker(Tracker) {
    if (Tracker)
      Tracker->pushStage(Name);
  }
  ~StageScope() {
    if (Tracker)
      Tracker->popStage();
  }
  StageScope(const StageScope &) = delete;
  StageScope &operator=(const StageScope &) = delete;

private:
  MemoryTracker *Tracker;
};

} // namespace scmo

#endif // SCMO_SUPPORT_MEMORYTRACKER_H
