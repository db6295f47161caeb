// Tests for the task runtime: dependency inference (RAW/WAR/WAW), sequential
// consistency under concurrency, error cancellation, tracing, inline mode.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "runtime/runtime.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;
using rt::Access;
using rt::DataHandle;
using rt::Runtime;

TEST(Runtime, RawDependencyOrdersWriteBeforeRead) {
  Runtime rt(4);
  auto h = rt.register_data("x");
  int x = 0;
  int seen = -1;
  rt.submit("write", {{h, Access::kWrite}}, [&] { x = 42; });
  rt.submit("read", {{h, Access::kRead}}, [&] { seen = x; });
  rt.wait_all();
  EXPECT_EQ(seen, 42);
}

TEST(Runtime, ChainOfReadWritesIsSequential) {
  Runtime rt(4);
  auto h = rt.register_data();
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    rt.submit("step", {{h, Access::kReadWrite}}, [&order, i] {
      order.push_back(i);
    });
  }
  rt.wait_all();
  std::vector<int> expect(64);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(Runtime, WarHazardWriterWaitsForReaders) {
  Runtime rt(4);
  auto h = rt.register_data();
  std::atomic<int> readers_done{0};
  int value = 7;
  std::vector<int> reads(8, -1);
  for (int i = 0; i < 8; ++i) {
    rt.submit("read", {{h, Access::kRead}}, [&, i] {
      reads[static_cast<std::size_t>(i)] = value;
      readers_done.fetch_add(1);
    });
  }
  int readers_at_write = -1;
  rt.submit("write", {{h, Access::kWrite}}, [&] {
    readers_at_write = readers_done.load();
    value = 99;
  });
  rt.wait_all();
  EXPECT_EQ(readers_at_write, 8) << "writer must wait for all prior readers";
  for (int r : reads) EXPECT_EQ(r, 7);
}

TEST(Runtime, DiamondDependency) {
  Runtime rt(4);
  auto a = rt.register_data();
  auto b = rt.register_data();
  auto c = rt.register_data();
  double va = 0, vb = 0, vc = 0, vd = 0;
  rt.submit("top", {{a, Access::kWrite}}, [&] { va = 2.0; });
  rt.submit("left", {{a, Access::kRead}, {b, Access::kWrite}},
            [&] { vb = va * 3.0; });
  rt.submit("right", {{a, Access::kRead}, {c, Access::kWrite}},
            [&] { vc = va + 5.0; });
  rt.submit("bottom", {{b, Access::kRead}, {c, Access::kRead}},
            [&] { vd = vb + vc; });
  rt.wait_all();
  EXPECT_DOUBLE_EQ(vd, 13.0);
}

// Sequential-consistency stress: a random DAG of arithmetic tasks over a
// bank of cells must produce identical results threaded and inline, because
// inline mode executes in submission order (the reference semantics).
double run_random_program(int threads, u64 seed) {
  constexpr int kCells = 24;
  constexpr int kTasks = 800;
  Runtime rt(threads);
  std::vector<DataHandle> handles;
  std::vector<double> cells(kCells);
  for (int i = 0; i < kCells; ++i) {
    handles.push_back(rt.register_data());
    cells[static_cast<std::size_t>(i)] = i + 1;
  }
  stats::Xoshiro256pp g(seed);
  for (int t = 0; t < kTasks; ++t) {
    const int dst = static_cast<int>(g.next() % kCells);
    const int src1 = static_cast<int>(g.next() % kCells);
    const int src2 = static_cast<int>(g.next() % kCells);
    const double coef = g.next_u01();
    std::vector<rt::DataAccess> acc{{handles[static_cast<std::size_t>(dst)],
                                     Access::kReadWrite}};
    if (src1 != dst)
      acc.push_back({handles[static_cast<std::size_t>(src1)], Access::kRead});
    if (src2 != dst && src2 != src1)
      acc.push_back({handles[static_cast<std::size_t>(src2)], Access::kRead});
    rt.submit("mix", acc, [&cells, dst, src1, src2, coef] {
      const double a = cells[static_cast<std::size_t>(src1)];
      const double b = cells[static_cast<std::size_t>(src2)];
      double& d = cells[static_cast<std::size_t>(dst)];
      d = 0.5 * d + coef * std::sin(a) + (1.0 - coef) * std::cos(b);
    });
  }
  rt.wait_all();
  double checksum = 0.0;
  for (double v : cells) checksum += v;
  return checksum;
}

TEST(Runtime, SequentialConsistencyStress) {
  for (u64 seed : {1ull, 2ull, 3ull}) {
    const double inline_result = run_random_program(0, seed);
    const double t2 = run_random_program(2, seed);
    const double t8 = run_random_program(8, seed);
    EXPECT_DOUBLE_EQ(inline_result, t2) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(inline_result, t8) << "seed=" << seed;
  }
}

TEST(Runtime, IndependentTasksAllRun) {
  Runtime rt(8);
  std::atomic<int> count{0};
  std::vector<DataHandle> handles;
  for (int i = 0; i < 100; ++i) handles.push_back(rt.register_data());
  for (int i = 0; i < 100; ++i) {
    rt.submit("inc", {{handles[static_cast<std::size_t>(i)], Access::kWrite}},
              [&] { count.fetch_add(1); });
  }
  rt.wait_all();
  EXPECT_EQ(count.load(), 100);
  EXPECT_GE(rt.tasks_executed(), 100);
}

TEST(Runtime, ReleasedHandlesAreRecycled) {
  Runtime rt(2);
  const DataHandle first = rt.register_data("transient");
  rt.release_data(first);
  const DataHandle reused = rt.register_data("next");
  EXPECT_EQ(reused.id(), first.id())
      << "released slots must be reused, not appended";

  // The recycled handle is fully functional for dependency inference.
  int x = 0, seen = -1;
  rt.submit("write", {{reused, Access::kWrite}}, [&] { x = 7; });
  rt.submit("read", {{reused, Access::kRead}}, [&] { seen = x; });
  rt.wait_all();
  EXPECT_EQ(seen, 7);

  // Registering after a burst of register/release cycles does not grow the
  // id space: a long-lived runtime serving transient per-round data stays
  // bounded.
  const DataHandle before = rt.register_data();
  for (int round = 0; round < 50; ++round) {
    std::vector<DataHandle> transient;
    for (int i = 0; i < 8; ++i) transient.push_back(rt.register_data());
    for (const DataHandle h : transient) rt.release_data(h);
  }
  const DataHandle after = rt.register_data();
  EXPECT_LE(after.id(), before.id() + 9);
}

TEST(Runtime, DoubleReleaseIsRejected) {
  Runtime rt(1);
  const DataHandle h = rt.register_data();
  rt.release_data(h);
  EXPECT_THROW(rt.release_data(h), Error);
  EXPECT_THROW(rt.release_data(DataHandle{}), Error);
}

TEST(Runtime, ReleaseWhileEpochReferencesHandleIsRejected) {
  Runtime rt(1);
  const DataHandle h = rt.register_data();
  rt.submit("touch", {{h, Access::kWrite}}, [] {});
  // The epoch still tracks h until wait_all(); releasing now would let a
  // recycled slot race the in-flight task.
  EXPECT_THROW(rt.release_data(h), Error);
  rt.wait_all();
  rt.release_data(h);  // legal once the epoch has drained
}

TEST(Runtime, ExceptionPropagatesAndCancels) {
  Runtime rt(2);
  auto h = rt.register_data();
  std::atomic<int> ran{0};
  rt.submit("boom", {{h, Access::kWrite}},
            [] { throw Error("task exploded"); });
  // 50 dependent tasks should all be cancelled (or at least not crash).
  for (int i = 0; i < 50; ++i) {
    rt.submit("after", {{h, Access::kReadWrite}}, [&] { ran.fetch_add(1); });
  }
  EXPECT_THROW(rt.wait_all(), Error);
  EXPECT_EQ(ran.load(), 0) << "tasks after the failure must be cancelled";
}

TEST(Runtime, DestructorSurfacesUnretrievedError) {
  // Regression: the destructor used to drain the final epoch and then drop a
  // pending first_error on the floor. It cannot rethrow (destructor), but it
  // must at least surface the what() on stderr.
  ::testing::internal::CaptureStderr();
  {
    Runtime rt(2);
    auto h = rt.register_data();
    rt.submit("boom", {{h, Access::kWrite}},
              [] { throw Error("lost-error-marker"); });
    // No wait_all(): destruction is the only chance to see the error.
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("lost-error-marker"), std::string::npos) << err;
}

TEST(Runtime, DestructorSurfacesUnretrievedErrorInlineMode) {
  ::testing::internal::CaptureStderr();
  {
    Runtime rt(0);
    auto h = rt.register_data();
    rt.submit("boom", {{h, Access::kWrite}},
              [] { throw Error("inline-lost-error-marker"); });
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("inline-lost-error-marker"), std::string::npos) << err;
}

TEST(Runtime, DestructorQuietWhenErrorWasRetrieved) {
  ::testing::internal::CaptureStderr();
  {
    Runtime rt(2);
    auto h = rt.register_data();
    rt.submit("boom", {{h, Access::kWrite}}, [] { throw Error("seen"); });
    EXPECT_THROW(rt.wait_all(), Error);  // error consumed here
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Runtime, UsableAfterErrorEpoch) {
  Runtime rt(2);
  auto h = rt.register_data();
  rt.submit("boom", {{h, Access::kWrite}}, [] { throw Error("x"); });
  EXPECT_THROW(rt.wait_all(), Error);
  int val = 0;
  rt.submit("ok", {{h, Access::kWrite}}, [&] { val = 5; });
  rt.wait_all();
  EXPECT_EQ(val, 5);
}

TEST(Runtime, WaitAllIdempotentAndReusable) {
  Runtime rt(2);
  auto h = rt.register_data();
  int x = 0;
  rt.submit("a", {{h, Access::kReadWrite}}, [&] { x += 1; });
  rt.wait_all();
  rt.wait_all();
  rt.submit("b", {{h, Access::kReadWrite}}, [&] { x += 10; });
  rt.wait_all();
  EXPECT_EQ(x, 11);
}

TEST(Runtime, InlineModeExecutesImmediately) {
  Runtime rt(0);
  auto h = rt.register_data();
  int x = 0;
  rt.submit("now", {{h, Access::kWrite}}, [&] { x = 1; });
  EXPECT_EQ(x, 1);  // no wait_all needed
  rt.wait_all();
  EXPECT_EQ(rt.num_threads(), 0);
}

TEST(Runtime, InlineModeErrorSurfacesAtWait) {
  Runtime rt(0);
  auto h = rt.register_data();
  rt.submit("boom", {{h, Access::kWrite}}, [] { throw Error("inline"); });
  int ran = 0;
  rt.submit("after", {{h, Access::kRead}}, [&] { ran = 1; });
  EXPECT_THROW(rt.wait_all(), Error);
  EXPECT_EQ(ran, 0);
}

TEST(Runtime, TraceRecordsTasks) {
  Runtime rt(2, /*enable_trace=*/true);
  auto h = rt.register_data();
  for (int i = 0; i < 5; ++i)
    rt.submit("traced", {{h, Access::kReadWrite}}, [] {});
  rt.wait_all();
  ASSERT_EQ(rt.trace().size(), 5u);
  for (const auto& rec : rt.trace()) {
    EXPECT_EQ(rec.name, "traced");
    EXPECT_GE(rec.end_s, rec.start_s);
    EXPECT_GE(rec.worker, 0);
  }
  EXPECT_FALSE(rt::summarize_trace(rt.trace()).empty());

  // A wide independent graph at 4 workers: every task is recorded exactly
  // once, by a real worker, however the pool interleaves them; the single
  // ready queue never steals.
  Runtime wide(4, /*enable_trace=*/true);
  std::vector<DataHandle> hs;
  for (int i = 0; i < 200; ++i) hs.push_back(wide.register_data());
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    wide.submit("wide", {{hs[static_cast<std::size_t>(i)], Access::kWrite}},
                [&] { ran.fetch_add(1); });
  }
  wide.wait_all();
  EXPECT_EQ(ran.load(), 200);
  ASSERT_EQ(wide.trace().size(), 200u);
  for (const auto& rec : wide.trace()) {
    EXPECT_EQ(rec.name, "wide");
    EXPECT_GE(rec.worker, 0);
    EXPECT_LT(rec.worker, 4);
    EXPECT_FALSE(rec.stolen);
  }
  EXPECT_EQ(wide.tasks_stolen(), 0);
}

TEST(Runtime, InvalidHandleRejected) {
  Runtime rt(1);
  DataHandle bogus;
  EXPECT_THROW(
      rt.submit("bad", {{bogus, Access::kRead}}, [] {}),
      Error);
  rt.wait_all();
}

TEST(Runtime, PriorityDoesNotBreakCorrectness) {
  Runtime rt(3);
  auto h = rt.register_data();
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    rt.submit("p", {{h, Access::kReadWrite}},
              [&order, i] { order.push_back(i); }, /*priority=*/i % 3);
  }
  rt.wait_all();
  // Dependencies force submission order regardless of priorities.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// ---- scheduler stress suite ----
//
// Adversarial graphs at up to 8 workers; TSan runs this suite in CI.

// One generated random-DAG "program", replayable on any runtime: kTasks
// tasks over kHandles cells, each ReadWrite on one handle plus up to two
// Reads, with priorities outside the named ladder (any int is legal).
struct DagOp {
  int dst;
  int src1;  // -1 = none
  int src2;
  int prio;
  int expect_v1;  // writer count of src1 at submission = version a Read sees
  int expect_v2;
};

std::vector<DagOp> make_dag(int handles, int tasks, u64 seed) {
  stats::Xoshiro256pp g(seed);
  std::vector<int> writers(static_cast<std::size_t>(handles), 0);
  std::vector<DagOp> ops;
  ops.reserve(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    DagOp op;
    op.dst = static_cast<int>(g.next() % static_cast<u64>(handles));
    op.src1 = static_cast<int>(g.next() % static_cast<u64>(handles));
    op.src2 = static_cast<int>(g.next() % static_cast<u64>(handles));
    if (op.src1 == op.dst) op.src1 = -1;
    if (op.src2 == op.dst || op.src2 == op.src1) op.src2 = -1;
    op.prio = static_cast<int>(g.next() % 9) - 2;  // [-2, 6]
    op.expect_v1 =
        op.src1 >= 0 ? writers[static_cast<std::size_t>(op.src1)] : -1;
    op.expect_v2 =
        op.src2 >= 0 ? writers[static_cast<std::size_t>(op.src2)] : -1;
    ++writers[static_cast<std::size_t>(op.dst)];
    ops.push_back(op);
  }
  return ops;
}

// Sequential consistency per handle, checked exactly: every ReadWrite task
// appends its id to its handle's log (the RW exclusivity the runtime
// promises is what makes the plain push_back legal — TSan enforces it), and
// every Read records the handle's version counter, which must equal the
// number of writers submitted before it.
void run_seqcst_dag(int workers, int handles, int tasks, u64 seed) {
  const std::vector<DagOp> ops = make_dag(handles, tasks, seed);
  Runtime rt(workers);
  std::vector<DataHandle> hs;
  for (int i = 0; i < handles; ++i) hs.push_back(rt.register_data());
  std::vector<std::vector<int>> log(static_cast<std::size_t>(handles));
  std::vector<int> version(static_cast<std::size_t>(handles), 0);
  std::vector<std::array<int, 2>> seen(static_cast<std::size_t>(tasks),
                                       {-1, -1});
  for (int t = 0; t < tasks; ++t) {
    const DagOp& op = ops[static_cast<std::size_t>(t)];
    std::vector<rt::DataAccess> acc{
        {hs[static_cast<std::size_t>(op.dst)], Access::kReadWrite}};
    if (op.src1 >= 0)
      acc.push_back({hs[static_cast<std::size_t>(op.src1)], Access::kRead});
    if (op.src2 >= 0)
      acc.push_back({hs[static_cast<std::size_t>(op.src2)], Access::kRead});
    rt.submit("dag", acc,
              [&log, &version, &seen, op, t] {
                if (op.src1 >= 0)
                  seen[static_cast<std::size_t>(t)][0] =
                      version[static_cast<std::size_t>(op.src1)];
                if (op.src2 >= 0)
                  seen[static_cast<std::size_t>(t)][1] =
                      version[static_cast<std::size_t>(op.src2)];
                log[static_cast<std::size_t>(op.dst)].push_back(t);
                ++version[static_cast<std::size_t>(op.dst)];
              },
              op.prio);
  }
  rt.wait_all();

  // Per-handle RW order == submission order.
  std::vector<std::vector<int>> expected(static_cast<std::size_t>(handles));
  for (int t = 0; t < tasks; ++t)
    expected[static_cast<std::size_t>(ops[static_cast<std::size_t>(t)].dst)]
        .push_back(t);
  for (int h = 0; h < handles; ++h)
    ASSERT_EQ(log[static_cast<std::size_t>(h)],
              expected[static_cast<std::size_t>(h)])
        << "workers=" << workers << " handle=" << h;
  // Every Read saw exactly the writes submitted before it (RAW + WAR).
  for (int t = 0; t < tasks; ++t) {
    const DagOp& op = ops[static_cast<std::size_t>(t)];
    EXPECT_EQ(seen[static_cast<std::size_t>(t)][0], op.expect_v1)
        << "workers=" << workers << " task=" << t;
    EXPECT_EQ(seen[static_cast<std::size_t>(t)][1], op.expect_v2)
        << "workers=" << workers << " task=" << t;
  }
}

TEST(RuntimeStress, RandomDagSequentialConsistencyPerHandle) {
  for (int workers : {2, 8})
    run_seqcst_dag(workers, /*handles=*/40, /*tasks=*/10000,
                   /*seed=*/20240624);
}

double run_priority_program(int workers, u64 seed) {
  constexpr int kCells = 24;
  constexpr int kTasks = 10000;
  Runtime rt(workers);
  std::vector<DataHandle> handles;
  std::vector<double> cells(kCells);
  for (int i = 0; i < kCells; ++i) {
    handles.push_back(rt.register_data());
    cells[static_cast<std::size_t>(i)] = i + 1;
  }
  stats::Xoshiro256pp g(seed);
  for (int t = 0; t < kTasks; ++t) {
    const int dst = static_cast<int>(g.next() % kCells);
    const int src = static_cast<int>(g.next() % kCells);
    const double coef = g.next_u01();
    const int prio = static_cast<int>(g.next() % 5);
    std::vector<rt::DataAccess> acc{{handles[static_cast<std::size_t>(dst)],
                                     Access::kReadWrite}};
    if (src != dst)
      acc.push_back({handles[static_cast<std::size_t>(src)], Access::kRead});
    rt.submit("mix", acc,
              [&cells, dst, src, coef] {
                const double a = cells[static_cast<std::size_t>(src)];
                double& d = cells[static_cast<std::size_t>(dst)];
                d = 0.5 * d + coef * std::sin(a) + (1.0 - coef) * std::cos(a);
              },
              prio);
  }
  rt.wait_all();
  double checksum = 0.0;
  for (double v : cells) checksum += v;
  return checksum;
}

TEST(RuntimeStress, RepeatRunsBitwiseAcrossWorkerCounts) {
  // The scheduler decides only *when* a task runs; arithmetic must be
  // *bitwise* identical across worker counts and repeat runs (the contract
  // test_determinism enforces for the PMVN pipelines, here on a 10k-task
  // adversarial DAG with mixed priorities). Compared as bit patterns:
  // EXPECT_DOUBLE_EQ's 4-ULP band would let a sub-ULP reassociation bug
  // through.
  const auto bits = [](double v) { return std::bit_cast<u64>(v); };
  for (const u64 seed : {u64{99}, u64{1234}}) {
    const double reference = run_priority_program(/*workers=*/0, seed);
    for (int workers : {1, 2, 8}) {
      EXPECT_EQ(bits(run_priority_program(workers, seed)), bits(reference))
          << "workers=" << workers << " seed=" << seed;
    }
    EXPECT_EQ(bits(run_priority_program(8, seed)), bits(reference))
        << "repeat run drifted, seed=" << seed;
  }
}

TEST(RuntimeStress, ExceptionCancellationUnderLoad) {
  // A failing task must cancel its not-yet-started dependents while
  // independent fodder tasks keep all 8 workers busy as the error
  // propagates; repeats vary the interleaving.
  for (int rep = 0; rep < 20; ++rep) {
    Runtime rt(8);
    auto h = rt.register_data();
    std::vector<DataHandle> fodder;
    for (int i = 0; i < 16; ++i) fodder.push_back(rt.register_data());
    std::atomic<int> chain_ran{0};
    for (int i = 0; i < 64; ++i) {
      rt.submit("fodder",
                {{fodder[static_cast<std::size_t>(i % 16)],
                  Access::kReadWrite}},
                [] {});
    }
    rt.submit("boom", {{h, Access::kWrite}},
              [] { throw Error("stress boom"); });
    for (int i = 0; i < 100; ++i) {
      rt.submit("after", {{h, Access::kReadWrite}},
                [&] { chain_ran.fetch_add(1); });
    }
    EXPECT_THROW(rt.wait_all(), Error) << "rep=" << rep;
    EXPECT_EQ(chain_ran.load(), 0)
        << "rep=" << rep
        << ": dependents of the failing task must be cancelled";
    // The runtime stays usable after the error epoch.
    int ok = 0;
    rt.submit("ok", {{h, Access::kWrite}}, [&] { ok = 1; });
    rt.wait_all();
    EXPECT_EQ(ok, 1);
  }
}

TEST(RuntimeStress, ReleaseDataUnderConcurrency) {
  // Engine-style round pattern at full worker churn: register transient
  // handles, run a graph over transient + persistent data, wait, release —
  // while a second submitter thread churns register/release on its own
  // handles (the handle table must isolate the two).
  for (int workers : {2, 8}) {
    Runtime rt(workers);
    std::vector<DataHandle> persistent;
    for (int i = 0; i < 4; ++i) persistent.push_back(rt.register_data());

    std::atomic<bool> stop{false};
    std::thread churn([&] {
      while (!stop.load()) {
        std::vector<DataHandle> own;
        for (int i = 0; i < 6; ++i) own.push_back(rt.register_data("churn"));
        for (const DataHandle h : own) rt.release_data(h);
      }
    });

    std::atomic<i64> total{0};
    for (int round = 0; round < 60; ++round) {
      std::vector<DataHandle> transient;
      for (int i = 0; i < 8; ++i)
        transient.push_back(rt.register_data("round"));
      for (int t = 0; t < 80; ++t) {
        const DataHandle h = (t % 3 == 0)
                                 ? persistent[static_cast<std::size_t>(t % 4)]
                                 : transient[static_cast<std::size_t>(t % 8)];
        rt.submit("work", {{h, Access::kReadWrite}},
                  [&] { total.fetch_add(1); });
      }
      rt.wait_all();
      for (const DataHandle h : transient) rt.release_data(h);
    }
    stop.store(true);
    churn.join();
    EXPECT_EQ(total.load(), 60 * 80) << "workers=" << workers;
    // Transient slots were recycled, not appended: the id space stays
    // bounded by the peak number of simultaneously live handles (~20),
    // nowhere near the 480 transients the rounds would have appended
    // without recycling.
    const DataHandle after = rt.register_data();
    EXPECT_LE(after.id(), 255) << "workers=" << workers;
    rt.release_data(after);
  }
}

}  // namespace
