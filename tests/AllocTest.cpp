//===- AllocTest.cpp - heap allocations per emitted instruction -----------===//
//
// An exact cost metric beside the timed benchmarks: a counting global
// operator new tallies the allocations each backend makes while compiling
// twelve generated programs at one thread. The counts depend only on the
// code, not on the host, so a change that adds an allocation per emitted
// instruction fails here whatever the machine's noise.
//
// The test prints the exact counts; the bounds are per instruction in the
// output. Phase 1 (the tree transformation) accounts for about 0.09
// allocations per GG instruction of the 0.3 allowed. The frontend's count
// (parsing the same programs) is printed beside them, unbounded.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "pcc/PccCodeGen.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

// Every replaceable form that allocates through malloc, and every form
// that frees, so allocation and release always pair malloc with free
// (also under AddressSanitizer, whose own operators these replace). The
// aligned forms keep the runtime's pair.
void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace gg;

namespace {

struct Tally {
  uint64_t Allocations = 0;
  size_t Instructions = 0;
  double perInstruction() const {
    return static_cast<double>(Allocations) / static_cast<double>(Instructions);
  }
};

/// Compiles generateLargeProgram(seed 1-12, 10) with each backend at one
/// thread, counting the backends apart from the parse (counted into
/// \p Frontend, once per program), after a first compile that creates the
/// process's stats entries and other once-only state.
void countBackends(Tally &GG, Tally &Pcc, uint64_t &Frontend) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  for (uint64_t Seed = 0; Seed <= 12; ++Seed) {
    const std::string Source = generateLargeProgram(Seed ? Seed : 1, 10);
    Program PG, PP;
    DiagnosticSink Diags;
    uint64_t Before = Allocations.load();
    ASSERT_TRUE(compileMiniC(Source, PG, Diags)) << Diags.renderAll();
    const uint64_t ParseCount = Allocations.load() - Before;
    ASSERT_TRUE(compileMiniC(Source, PP, Diags)) << Diags.renderAll();
    std::string AsmG, AsmP;
    AsmG.reserve(1 << 20);
    AsmP.reserve(1 << 20);

    GGCodeGenerator CG(*Target);
    Before = Allocations.load();
    ASSERT_TRUE(CG.compile(PG, AsmG, Err)) << Err;
    uint64_t GGCount = Allocations.load() - Before;

    PccCodeGenerator PC;
    Before = Allocations.load();
    ASSERT_TRUE(PC.compile(PP, AsmP, Err)) << Err;
    uint64_t PccCount = Allocations.load() - Before;
    if (Seed == 0)
      continue; // the warm-up compile
    Frontend += ParseCount;
    GG.Allocations += GGCount;
    GG.Instructions += CG.stats().Instructions;
    Pcc.Allocations += PccCount;
    Pcc.Instructions += PC.stats().Instructions;
  }
}

TEST(Allocations, PerEmittedInstructionWithinBounds) {
  Tally GG, Pcc;
  uint64_t Frontend = 0;
  countBackends(GG, Pcc, Frontend);
  printf("frontend: %llu allocations\n",
         static_cast<unsigned long long>(Frontend));
  printf("gg:  %llu allocations, %zu instructions, %.3f per instruction\n",
         static_cast<unsigned long long>(GG.Allocations), GG.Instructions,
         GG.perInstruction());
  printf("pcc: %llu allocations, %zu instructions, %.3f per instruction\n",
         static_cast<unsigned long long>(Pcc.Allocations), Pcc.Instructions,
         Pcc.perInstruction());
  ASSERT_GT(GG.Instructions, 0u);
  ASSERT_GT(Pcc.Instructions, 0u);
  EXPECT_LE(GG.perInstruction(), 0.3);
  EXPECT_LE(Pcc.perInstruction(), 0.15);
}

TEST(Allocations, CountsRepeatExactly) {
  Tally A1, P1, A2, P2;
  uint64_t F1 = 0, F2 = 0;
  countBackends(A1, P1, F1);
  countBackends(A2, P2, F2);
  EXPECT_EQ(A1.Allocations, A2.Allocations);
  EXPECT_EQ(P1.Allocations, P2.Allocations);
  EXPECT_EQ(F1, F2);
}

} // namespace
