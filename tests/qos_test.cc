#include <gtest/gtest.h>

#include "fault/plan.h"
#include "offload/scheduler.h"
#include "qos/admission.h"
#include "qos/circuit_breaker.h"
#include "qos/degradation.h"
#include "scenarios/overload.h"

namespace arbd::qos {
namespace {

// --- AdmissionController ---------------------------------------------------

// One shared queue backs every class: report its fill to each of them.
void UpdateEveryClass(AdmissionController& ac, double fill) {
  for (int i = 0; i < kPriorityClasses; ++i) {
    ac.UpdatePressure(static_cast<PriorityClass>(i), fill);
  }
}

TEST(Admission, AdmitsEverythingAtZeroPressure) {
  AdmissionController ac;
  for (int i = 0; i < kPriorityClasses; ++i) {
    EXPECT_TRUE(ac.Admit(static_cast<PriorityClass>(i)));
  }
  EXPECT_EQ(ac.priority_inversions(), 0u);
}

TEST(Admission, ShedsLowestClassFirstUnderSharedPressure) {
  AdmissionController ac;

  UpdateEveryClass(ac, 0.7);  // above background's 0.60 only
  EXPECT_TRUE(ac.Admit(PriorityClass::kFrameCritical));
  EXPECT_TRUE(ac.Admit(PriorityClass::kInteractive));
  EXPECT_FALSE(ac.Admit(PriorityClass::kBackground));

  UpdateEveryClass(ac, 0.85);  // above interactive's 0.80
  EXPECT_TRUE(ac.Admit(PriorityClass::kFrameCritical));
  EXPECT_FALSE(ac.Admit(PriorityClass::kInteractive));
  EXPECT_FALSE(ac.Admit(PriorityClass::kBackground));

  UpdateEveryClass(ac, 0.96);  // above frame-critical's 0.95
  EXPECT_FALSE(ac.Admit(PriorityClass::kFrameCritical));
  EXPECT_FALSE(ac.Admit(PriorityClass::kInteractive));
  EXPECT_FALSE(ac.Admit(PriorityClass::kBackground));

  EXPECT_EQ(ac.priority_inversions(), 0u);
}

TEST(Admission, HysteresisHoldsShedStateInsideTheBand) {
  AdmissionController ac;
  const auto bg = PriorityClass::kBackground;

  ac.UpdatePressure(bg, 0.65);  // above shed_at=0.60: start shedding
  EXPECT_TRUE(ac.shedding(bg));
  ac.UpdatePressure(bg, 0.50);  // inside the band: still shedding
  EXPECT_TRUE(ac.shedding(bg));
  ac.UpdatePressure(bg, 0.35);  // below resume_at=0.40: resume
  EXPECT_FALSE(ac.shedding(bg));

  // One entry + one exit; the in-band update did not flap.
  EXPECT_EQ(ac.transitions(bg), 2u);
}

TEST(Admission, CascadeShedsLowerClassesWithHigherOnes) {
  // Only the frame-critical queue is pressured; the cascade must still
  // shed everything below it so "lowest first" holds structurally.
  AdmissionController ac;
  ac.UpdatePressure(PriorityClass::kFrameCritical, 0.96);
  EXPECT_TRUE(ac.shedding(PriorityClass::kFrameCritical));
  EXPECT_TRUE(ac.shedding(PriorityClass::kInteractive));
  EXPECT_TRUE(ac.shedding(PriorityClass::kBackground));
  EXPECT_FALSE(ac.Admit(PriorityClass::kBackground));
  EXPECT_EQ(ac.priority_inversions(), 0u);
}

TEST(Admission, ExportsDecisionCounters) {
  MetricRegistry reg;
  AdmissionController ac({}, &reg);
  UpdateEveryClass(ac, 0.7);
  ac.Admit(PriorityClass::kFrameCritical);
  ac.Admit(PriorityClass::kBackground);
  ac.Admit(PriorityClass::kBackground);
  EXPECT_DOUBLE_EQ(reg.Get("qos.admission.admitted.frame_critical"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("qos.admission.shed.background"), 2.0);
  EXPECT_EQ(ac.admitted(PriorityClass::kFrameCritical), 1u);
  EXPECT_EQ(ac.shed(PriorityClass::kBackground), 2u);
}

// --- CircuitBreaker --------------------------------------------------------

TEST(Breaker, StaysClosedThroughSuccesses) {
  CircuitBreaker b;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(b.Allow());
    b.RecordSuccess();
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.opens(), 0u);
  EXPECT_EQ(b.short_circuits(), 0u);
}

TEST(Breaker, OpensAfterConsecutiveFailuresAndShortCircuits) {
  CircuitBreaker b;
  for (std::size_t i = 0; i < b.config().failure_threshold; ++i) {
    EXPECT_TRUE(b.Allow());
    b.RecordFailure();
  }
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_FALSE(b.Allow());
  EXPECT_EQ(b.short_circuits(), 1u);
}

TEST(Breaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker b;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i + 1 < b.config().failure_threshold; ++i) {
      EXPECT_TRUE(b.Allow());
      b.RecordFailure();
    }
    EXPECT_TRUE(b.Allow());
    b.RecordSuccess();
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.opens(), 0u);
}

TEST(Breaker, HalfOpenProbesCloseAfterRecovery) {
  CircuitBreaker b({}, 42);
  for (std::size_t i = 0; i < b.config().failure_threshold; ++i) {
    b.Allow();
    b.RecordFailure();
  }
  ASSERT_EQ(b.state(), BreakerState::kOpen);

  // Backend recovered: every allowed probe succeeds. The breaker must
  // re-close within a bounded number of decisions.
  int decisions = 0;
  while (b.state() != BreakerState::kClosed && decisions < 10'000) {
    ++decisions;
    if (b.Allow()) b.RecordSuccess();
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.closes(), 1u);
  EXPECT_GE(b.probes(), b.config().close_successes);
  // The cooldown held at least open_decisions calls before probing.
  EXPECT_GE(static_cast<std::size_t>(decisions), b.config().open_decisions);
}

TEST(Breaker, FailedProbeReopensForAnotherCooldown) {
  CircuitBreaker b({}, 42);
  for (std::size_t i = 0; i < b.config().failure_threshold; ++i) {
    b.Allow();
    b.RecordFailure();
  }
  // Reach half-open, land one probe, and fail it.
  int guard = 0;
  while (guard++ < 10'000) {
    if (b.Allow()) {
      b.RecordFailure();
      break;
    }
  }
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 2u);
}

TEST(Breaker, WorstSeedStillProbesWithinInterval) {
  // Worst-case RNG — modeled exactly by probe_probability = 0, where every
  // Bernoulli draw loses — must still probe: the floor guarantees at least
  // one probe per probe_interval half-open decisions. Pre-fix this config
  // short-circuits forever and a recovered backend is never rediscovered.
  BreakerConfig cfg;
  cfg.probe_probability = 0.0;
  CircuitBreaker b(cfg, 42);
  for (std::size_t i = 0; i < cfg.failure_threshold; ++i) {
    b.Allow();
    b.RecordFailure();
  }
  ASSERT_EQ(b.state(), BreakerState::kOpen);

  // Healthy backend: every allowed probe succeeds. The breaker must close
  // within cooldown + close_successes forced-probe windows.
  const std::size_t bound =
      cfg.open_decisions + cfg.close_successes * cfg.probe_interval + 2;
  std::size_t decisions = 0;
  while (b.state() != BreakerState::kClosed && decisions < bound) {
    ++decisions;
    if (b.Allow()) b.RecordSuccess();
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.probes(), cfg.close_successes);
}

TEST(Breaker, ProbeFloorDisabledRestoresBernoulliOnly) {
  // probe_interval = 0 keeps the pure seeded-trickle behaviour (no floor).
  BreakerConfig cfg;
  cfg.probe_probability = 0.0;
  cfg.probe_interval = 0;
  CircuitBreaker b(cfg, 42);
  for (std::size_t i = 0; i < cfg.failure_threshold; ++i) {
    b.Allow();
    b.RecordFailure();
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(b.Allow());
  }
  EXPECT_EQ(b.probes(), 0u);
}

TEST(Breaker, SameSeedSameSchedule) {
  CircuitBreaker a({}, 7), b({}, 7);
  auto drive = [](CircuitBreaker& cb) {
    for (std::size_t i = 0; i < cb.config().failure_threshold; ++i) {
      cb.Allow();
      cb.RecordFailure();
    }
    for (int i = 0; i < 500; ++i) {
      if (cb.Allow()) cb.RecordFailure();  // outage persists
    }
  };
  drive(a);
  drive(b);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.opens(), b.opens());
  EXPECT_EQ(a.probes(), b.probes());
  EXPECT_EQ(a.short_circuits(), b.short_circuits());
}

// --- DegradationLadder -----------------------------------------------------

TEST(Ladder, StartsAtFullFidelity) {
  DegradationLadder ladder;
  const auto p = ladder.profile();
  EXPECT_EQ(p.level, 0);
  EXPECT_DOUBLE_EQ(p.cost_multiplier, 1.0);
}

TEST(Ladder, StepsDownRungByRungUnderSustainedViolation) {
  DegradationLadder ladder;
  const Duration late = ladder.config().slo * 2.0;
  auto violate = [&] {
    for (int i = 0; i < ladder.config().violations_to_step_down; ++i) {
      ladder.Observe(late);
    }
  };

  violate();
  EXPECT_EQ(ladder.level(), 1);
  EXPECT_DOUBLE_EQ(ladder.profile().cost_multiplier, 0.75);

  violate();
  EXPECT_EQ(ladder.level(), 2);
  EXPECT_DOUBLE_EQ(ladder.profile().cost_multiplier, 0.55);

  violate();
  EXPECT_EQ(ladder.level(), 3);
  EXPECT_DOUBLE_EQ(ladder.profile().cost_multiplier, 0.40);

  violate();  // clamped at max_level
  EXPECT_EQ(ladder.level(), 3);
  EXPECT_EQ(ladder.step_downs(), 3u);
}

TEST(Ladder, DeadBandAndClearsResetTheViolationStreak) {
  DegradationLadder ladder;
  const Duration late = ladder.config().slo * 2.0;
  const Duration in_band = ladder.config().slo * 0.9;   // between headroom and slo
  const Duration clear = ladder.config().slo * 0.1;

  for (int i = 0; i < ladder.config().violations_to_step_down - 1; ++i) {
    ladder.Observe(late);
  }
  ladder.Observe(in_band);  // dead band: streak resets, level holds
  for (int i = 0; i < ladder.config().violations_to_step_down - 1; ++i) {
    ladder.Observe(late);
  }
  ladder.Observe(clear);  // comfortably clear: streak resets again
  EXPECT_EQ(ladder.level(), 0);

  for (int i = 0; i < ladder.config().violations_to_step_down; ++i) {
    ladder.Observe(late);
  }
  EXPECT_EQ(ladder.level(), 1);
}

TEST(Ladder, StepsBackUpAfterSustainedHeadroom) {
  DegradationLadder ladder;
  const Duration late = ladder.config().slo * 2.0;
  const Duration clear = ladder.config().slo * 0.1;
  for (int i = 0; i < ladder.config().violations_to_step_down; ++i) {
    ladder.Observe(late);
  }
  ASSERT_EQ(ladder.level(), 1);
  for (int i = 0; i < ladder.config().clears_to_step_up; ++i) {
    ladder.Observe(clear);
  }
  EXPECT_EQ(ladder.level(), 0);
  EXPECT_EQ(ladder.step_ups(), 1u);
}

TEST(Ladder, ShedFrameWorkCountsAsViolation) {
  DegradationLadder ladder;
  for (int i = 0; i < ladder.config().violations_to_step_down; ++i) {
    ladder.ObserveShed();
  }
  EXPECT_EQ(ladder.level(), 1);
}

// --- Slow-success (gray failure) regression --------------------------------

TEST(Breaker, SustainedSlowSuccessesTripTheBreaker) {
  // Regression (ISSUE 10): a browned-out backend answers every request
  // "successfully" but over the caller's deadline. Before the latency-
  // aware success report the breaker only ever saw RecordSuccess() and
  // stayed closed forever, pinning the offload path to the slow cloud.
  BreakerConfig cfg;
  cfg.slow_success_threshold = Duration::Millis(10);
  CircuitBreaker b(cfg, 7);
  for (std::size_t i = 0; i < cfg.failure_threshold; ++i) {
    EXPECT_TRUE(b.Allow());
    b.RecordSuccess(Duration::Millis(25));  // success, but 2.5x the deadline
  }
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.slow_successes(), cfg.failure_threshold);
}

TEST(Breaker, HalfOpenProbeSucceedingSlowlyReopens) {
  // The sharper half of the regression: a half-open breaker's probe that
  // "succeeds" past the deadline must count as a failed probe and re-open
  // the circuit — otherwise close_successes slow probes close it and the
  // caller is fed the browned-out path again.
  BreakerConfig cfg;
  cfg.slow_success_threshold = Duration::Millis(10);
  cfg.probe_interval = 4;
  CircuitBreaker b(cfg, 7);
  for (std::size_t i = 0; i < cfg.failure_threshold; ++i) {
    b.Allow();
    b.RecordFailure();
  }
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  // Ride out the cooldown to the first allowed probe.
  bool probed = false;
  for (std::size_t i = 0; i < cfg.open_decisions + cfg.probe_interval + 1; ++i) {
    if (b.Allow()) {
      probed = true;
      break;
    }
  }
  ASSERT_TRUE(probed);
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  b.RecordSuccess(Duration::Millis(25));  // slow probe "success"
  EXPECT_EQ(b.state(), BreakerState::kOpen) << "slow probe must not count as recovery";
  EXPECT_EQ(b.opens(), 2u);
}

TEST(Breaker, ZeroThresholdKeepsLatencyBlindSemantics) {
  // Threshold zero (the default) must be exactly the old RecordSuccess():
  // arbitrarily slow successes keep the breaker closed.
  CircuitBreaker b({}, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(b.Allow());
    b.RecordSuccess(Duration::Seconds(10));
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.slow_successes(), 0u);
}

// --- Breaker wiring into the offload scheduler -----------------------------

TEST(SchedulerBreaker, OutageShortCircuitsToLocalInsteadOfRetryStorm) {
  offload::NetworkConfig net_cfg;
  net_cfg.rtt = Duration::Millis(20);
  net_cfg.rtt_jitter = Duration::Millis(0);
  net_cfg.loss_rate = 0.0;
  offload::NetworkModel net(net_cfg, 11);
  offload::OffloadScheduler sched(offload::OffloadPolicy::kCloudOnly,
                                  offload::DeviceModel{}, offload::CloudModel{}, net);

  auto plan = fault::FaultPlan::Parse("taskfail@p=1");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 5);
  sched.set_fault_injector(&injector);

  CircuitBreaker breaker({}, 13);
  sched.set_circuit_breaker(&breaker);

  const offload::ComputeTask task{"t", 10.0, 1024, 256, true};
  std::uint64_t fell_back = 0, short_circuited = 0;
  for (int i = 0; i < 50; ++i) {
    const auto out = sched.Run(task);
    EXPECT_EQ(out.placement, offload::Placement::kLocal);  // never stuck on cloud
    fell_back += out.fell_back_local ? 1 : 0;
    short_circuited += out.short_circuited ? 1 : 0;
  }
  // The first task's exhausted retries trip the breaker; most of the rest
  // never touch the network at all.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_GT(short_circuited, 25u);
  EXPECT_EQ(sched.short_circuit_count(), short_circuited);
  // Retries stay bounded by the few allowed attempts, not 50 full
  // retry-and-fallback cycles.
  EXPECT_LT(sched.retry_count(),
            50 * static_cast<std::uint64_t>(sched.retry_policy().max_attempts - 1));
  EXPECT_GT(fell_back, 0u);
}

TEST(SchedulerBreaker, BrownedOutCloudShortCircuitsViaSlowSuccesses) {
  // No injected failures at all — the cloud path "works", it is just far
  // over the frame deadline (a 60 ms RTT against a 10 ms slow-success
  // threshold). The scheduler's latency-aware outcome report must trip
  // the breaker and pin execution local.
  offload::NetworkConfig net_cfg;
  net_cfg.rtt = Duration::Millis(60);
  net_cfg.rtt_jitter = Duration::Millis(0);
  net_cfg.loss_rate = 0.0;
  offload::NetworkModel net(net_cfg, 11);
  offload::OffloadScheduler sched(offload::OffloadPolicy::kCloudOnly,
                                  offload::DeviceModel{}, offload::CloudModel{}, net);
  BreakerConfig bc;
  bc.slow_success_threshold = Duration::Millis(10);
  CircuitBreaker breaker(bc, 13);
  sched.set_circuit_breaker(&breaker);

  const offload::ComputeTask task{"t", 10.0, 1024, 256, true};
  std::uint64_t short_circuited = 0;
  for (int i = 0; i < 50; ++i) {
    const auto out = sched.Run(task);
    short_circuited += out.short_circuited ? 1 : 0;
  }
  EXPECT_GT(breaker.slow_successes(), 0u);
  EXPECT_GT(breaker.opens(), 0u);
  EXPECT_GT(short_circuited, 0u);
}

// --- Overload harness ------------------------------------------------------

TEST(Overload, SoakIsDeterministicAndRespectsBudgets) {
  scenarios::OverloadConfig cfg;
  cfg.load = 2.0;
  cfg.duration = Duration::Millis(400);
  cfg.seed = 7;
  cfg.fault_spec = "stall@ms=10,p=0.002";

  auto a = scenarios::RunOverloadSoak(cfg);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_FALSE(a->wedged);
  EXPECT_EQ(a->lost, 0u);
  EXPECT_EQ(a->budget_violations, 0u);
  EXPECT_EQ(a->priority_inversions, 0u);
  // Frame-critical work is never shed while background work is admitted.
  EXPECT_EQ(a->classes[0].shed, 0u);

  auto b = scenarios::RunOverloadSoak(cfg);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->offered, a->offered);
  EXPECT_EQ(b->admitted, a->admitted);
  EXPECT_EQ(b->processed, a->processed);
  EXPECT_EQ(b->fault_log, a->fault_log);
  EXPECT_DOUBLE_EQ(b->aggregate_p99_ms, a->aggregate_p99_ms);
}

}  // namespace
}  // namespace arbd::qos
