// RetryPolicy: backoff shape, deterministic jitter, and the executor's
// retry loop -- exhaustion, recovery, timeouts, and honest charging of
// retry latency to the simulated clock.

#include "mediator/retry_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "mediator/exec.h"
#include "sources/data_source.h"
#include "wrapper/fault_injection.h"
#include "wrapper/wrapper.h"

namespace disco {
namespace mediator {
namespace {

using algebra::Scan;
using algebra::Submit;

RetryPolicy NoJitterPolicy(int attempts) {
  RetryPolicy p = RetryPolicy::Standard(attempts);
  p.jitter_fraction = 0;
  return p;
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.backoff_base_ms = 100;
  p.backoff_multiplier = 2.0;
  p.backoff_cap_ms = 350;
  p.jitter_fraction = 0;
  EXPECT_DOUBLE_EQ(p.BackoffMs(1, nullptr), 100);
  EXPECT_DOUBLE_EQ(p.BackoffMs(2, nullptr), 200);
  EXPECT_DOUBLE_EQ(p.BackoffMs(3, nullptr), 350);  // capped, not 400
  EXPECT_DOUBLE_EQ(p.BackoffMs(9, nullptr), 350);
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy p;
  p.backoff_base_ms = 100;
  p.jitter_fraction = 0.25;
  Rng rng_a(7), rng_b(7);
  for (int i = 1; i <= 20; ++i) {
    double a = p.BackoffMs(1, &rng_a);
    EXPECT_GE(a, 75.0);
    EXPECT_LE(a, 125.0);
    // Same seed, same draw index => bit-identical jitter.
    EXPECT_DOUBLE_EQ(a, p.BackoffMs(1, &rng_b));
  }
}

/// A tiny one-table source behind a fault-injecting wrapper.
std::unique_ptr<wrapper::FaultInjectingWrapper> MakeFlakySource(
    wrapper::FaultProfile profile) {
  auto src = sources::MakeRelationalSource("flaky");
  storage::Table* t =
      src->CreateTable(CollectionSchema("T", {{"k", AttrType::kLong}}));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(t->Insert({Value(int64_t{i})}).ok());
  }
  auto inner = std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
  return std::make_unique<wrapper::FaultInjectingWrapper>(std::move(inner),
                                                          profile);
}

TEST(RetryPolicyTest, ExhaustionChargesEveryAttemptAndBackoff) {
  auto flaky = MakeFlakySource(wrapper::FaultProfile::Dead());
  costmodel::CalibrationParams params;
  ExecOptions opts;
  opts.retry = NoJitterPolicy(3);
  MediatorExecutor exec({{"flaky", flaky.get()}}, params, nullptr, opts);

  auto r = exec.Execute(*Submit("flaky", Scan("T")));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("gave up after 3 attempts"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(flaky->calls(), 3);
  // 3 failed round trips + backoffs of 100 and 200 ms.
  EXPECT_DOUBLE_EQ(exec.elapsed_ms(), 3 * params.ms_msg_latency + 100 + 200);
}

TEST(RetryPolicyTest, TransientOutageRecoversWithWarning) {
  auto flaky = MakeFlakySource(wrapper::FaultProfile::Outage(2));
  costmodel::CalibrationParams params;
  ExecOptions opts;
  opts.retry = NoJitterPolicy(4);
  MediatorExecutor exec({{"flaky", flaky.get()}}, params, nullptr, opts);

  auto r = exec.Execute(*Submit("flaky", Scan("T")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 20u);
  EXPECT_EQ(flaky->calls(), 3);  // fail, fail, succeed
  // Retry latency shows up honestly in measured time: two failed round
  // trips and two backoffs (100 + 200 ms) on top of the successful
  // submit (source time + round trip + 20 tuples * 9 bytes shipped).
  ASSERT_EQ(r->subqueries.size(), 1u);
  EXPECT_DOUBLE_EQ(r->measured_ms,
                   r->subqueries[0].source_ms + 3 * params.ms_msg_latency +
                       params.ms_per_net_byte * 20 * 9 + 100 + 200);
  // The survived degradation is reported.
  ASSERT_EQ(r->warnings.size(), 1u);
  EXPECT_EQ(r->warnings[0].source, "flaky");
  EXPECT_EQ(r->warnings[0].attempts, 3);
  EXPECT_NE(r->warnings[0].ToString().find("recovered"), std::string::npos);
}

TEST(RetryPolicyTest, SlowSourceTimesOutAndChargesTheBudget) {
  // The source answers, but 500 ms added latency blows the 100 ms
  // per-attempt budget every time.
  auto flaky =
      MakeFlakySource(wrapper::FaultProfile{}.WithLatency(500));
  costmodel::CalibrationParams params;
  ExecOptions opts;
  opts.retry = NoJitterPolicy(2);
  opts.retry.attempt_timeout_ms = 100;
  MediatorExecutor exec({{"flaky", flaky.get()}}, params, nullptr, opts);

  auto r = exec.Execute(*Submit("flaky", Scan("T")));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_NE(r.status().message().find("timed out"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(flaky->calls(), 2);
  // Each attempt charges the budget (not the overrun) plus the round
  // trip; one backoff in between.
  EXPECT_DOUBLE_EQ(exec.elapsed_ms(),
                   2 * (params.ms_msg_latency + 100) + 100);
}

TEST(RetryPolicyTest, NonRetryableErrorsAreNotRetried) {
  auto flaky = MakeFlakySource(wrapper::FaultProfile{});
  costmodel::CalibrationParams params;
  ExecOptions opts;
  opts.retry = NoJitterPolicy(5);
  MediatorExecutor exec({{"flaky", flaky.get()}}, params, nullptr, opts);

  // Unknown collection inside the submit: a plan bug, not flakiness.
  auto r = exec.Execute(*Submit("flaky", Scan("NoSuchCollection")));
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_EQ(flaky->calls(), 1);  // no retry burned
  // The source name is chained onto the error.
  EXPECT_NE(r.status().message().find("source 'flaky'"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace mediator
}  // namespace disco
