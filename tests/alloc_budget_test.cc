// Heap-allocation budget on the answer path. This binary replaces the
// global operator new/delete with versions that count allocations on
// the calling thread, then counts one steady-state deterministic
// QuerySession::Run (the scheduler, every node handler and every
// message hop run on the caller's thread). The budgets sit just above
// what the one-row answer path costs with inline segment storage
// (DESIGN.md §10): a segment whose binding and rows fit its inline
// block is one allocation, and Message::binding stays empty on answer
// messages. Request-side node state is flat (DESIGN.md §13): a tuple
// request costs a row in a binding table, not a hash-set node or a
// Relation of its own.
//
// Kept in its own binary because the operator replacement is global.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "workload/generators.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mpqe {
namespace {

// Allocations on this thread during the second of two deterministic
// sessions of `program_text` over `db` (the first warms the plan, the
// pools and every lazily built structure).
uint64_t SteadyStateAllocations(Database db, const std::string& program_text,
                                size_t expected_answers) {
  Program program;
  Status parsed = ParseInto(program_text, program, db);
  EXPECT_TRUE(parsed.ok()) << parsed;
  // A default engine: the count covers the session together with the
  // engine's bookkeeping around it (query log entry, flight records).
  Engine engine;
  std::shared_ptr<DatabaseSnapshot> snapshot = engine.Attach(std::move(db));
  auto plan = engine.Prepare(snapshot, program);
  EXPECT_TRUE(plan.ok()) << plan.status();
  uint64_t counted = 0;
  for (int run = 0; run < 2; ++run) {
    auto session = engine.CreateSession(*plan);
    EXPECT_TRUE(session.ok()) << session.status();
    const uint64_t before = t_allocations;
    auto result = (*session)->Run();
    counted = t_allocations - before;
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->answers.size(), expected_answers);
  }
  return counted;
}

TEST(AllocBudgetTest, LinearTcOnAChainStaysUnderBudget) {
  // The tc_chain_bulk shape: ~40k one-row answer segments per query.
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 160).ok());
  uint64_t allocations =
      SteadyStateAllocations(std::move(db), workload::LinearTcProgram(0),
                             /*expected_answers=*/159);
  std::cout << "allocations per session: " << allocations << "\n";
  EXPECT_LE(allocations, 20800u);
}

TEST(AllocBudgetTest, NonlinearTcOnACycleStaysUnderBudget) {
  // The nl_cycle_dedup shape: most arriving rows are duplicates.
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 32).ok());
  uint64_t allocations =
      SteadyStateAllocations(std::move(db), workload::NonlinearTcProgram(0),
                             /*expected_answers=*/32);
  std::cout << "allocations per session: " << allocations << "\n";
  EXPECT_LE(allocations, 3500u);
}

TEST(AllocBudgetTest, UnionOfLinearTcsStaysUnderBudget) {
  // The scc_parallel shape: eight recursive SCCs unioned into goal,
  // where request-side state (bindings, per-request ends) dominates.
  Database db;
  std::string text;
  for (int g = 0; g < 8; ++g) {
    Rng rng(100 + g);
    ASSERT_TRUE(
        workload::MakeRandomGraph(db, StrCat("e", g), 40, 2, rng).ok());
    text += StrCat("tc", g, "(X, Y) :- e", g, "(X, Y).\n", "tc", g,
                   "(X, Y) :- e", g, "(X, Z), tc", g, "(Z, Y).\n",
                   "goal(W) :- tc", g, "(0, W).\n");
  }
  uint64_t allocations =
      SteadyStateAllocations(std::move(db), text, /*expected_answers=*/40);
  std::cout << "allocations per session: " << allocations << "\n";
  EXPECT_LE(allocations, 19900u);
}

}  // namespace
}  // namespace mpqe
