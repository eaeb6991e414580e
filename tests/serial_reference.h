// Test helpers shared by the query-engine suites: the serial executor
// over BuildSerial() is the reference ExecuteParallel is held to, with
// results compared order-normalised at every dop.

#ifndef DBM_TESTS_SERIAL_REFERENCE_H_
#define DBM_TESTS_SERIAL_REFERENCE_H_

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "query/parallel.h"

namespace dbm::query {

/// Result-set and profile comparisons need the plan's own work, so the
/// process injector (armed by the chaos CI's DBM_FAULT_SPEC) is set to
/// `spec` for the scope and restored afterwards. Fault tests arm their
/// own spec the same way.
class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(const std::string& spec, uint64_t seed = 42) {
    fault::Injector& inj = fault::Injector::Default();
    prev_spec_ = inj.spec();
    prev_seed_ = inj.seed();
    EXPECT_TRUE(inj.Configure(spec, seed).ok());
  }
  ~ScopedFaultSpec() {
    (void)fault::Injector::Default().Configure(prev_spec_, prev_seed_);
  }

 private:
  std::string prev_spec_;
  uint64_t prev_seed_;
};

inline std::multiset<std::string> Canon(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const Tuple& t : rows) out.insert(t.ToString());
  return out;
}

/// The serial reference: BuildSerial + the serial executor.
inline std::vector<Tuple> SerialRows(const ParallelPlan& plan) {
  auto root = BuildSerial(plan);
  EXPECT_TRUE(root.ok()) << root.status().ToString();
  std::vector<Tuple> out;
  if (!root.ok()) return out;
  auto stats = Execute(root->get(), &out, ExecOptions());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return out;
}

/// Runs `plan` at dop 1, 2, 4 and 8 on an 8-worker pool (`base` carries
/// any other options) and holds every run to `reference`: the same
/// result set, the row count in ParallelStats, and column batches
/// actually processed.
inline void ExpectMatchesAtEveryDop(const ParallelPlan& plan,
                                    const std::multiset<std::string>& reference,
                                    ParallelOptions base = ParallelOptions()) {
  WorkerPool pool(8);
  base.pool = &pool;
  for (size_t dop : {1u, 2u, 4u, 8u}) {
    ParallelOptions opt = base;
    opt.dop = dop;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(plan, &out, opt);
    ASSERT_TRUE(stats.ok()) << "dop=" << dop << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
    EXPECT_EQ(stats->rows, out.size()) << "dop=" << dop;
    EXPECT_GT(stats->batches, 0u) << "dop=" << dop;
  }
}

/// ExpectMatchesAtEveryDop against the serial executor's run of `plan`.
inline void ExpectMatchesSerialAtEveryDop(const ParallelPlan& plan,
                                          bool expect_nonempty = true) {
  std::multiset<std::string> reference = Canon(SerialRows(plan));
  if (expect_nonempty) {
    EXPECT_FALSE(reference.empty());
  }
  ExpectMatchesAtEveryDop(plan, reference);
}

}  // namespace dbm::query

#endif  // DBM_TESTS_SERIAL_REFERENCE_H_
