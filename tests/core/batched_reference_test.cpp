/** Golden bit-identity suite: the batched engine (idle-run folding
 *  through tickRepeat, skip-ahead) must reproduce the per-cycle
 *  reference engine exactly — same cycle count, same instruction count,
 *  and every stack component equal to within 1e-9 (the only permitted
 *  difference is the summation-order change when an idle run folds its
 *  attribution into one multiply). See docs/performance.md. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/ooo_core.hpp"
#include "sim/multicore.hpp"
#include "sim/presets.hpp"
#include "sim/simulation.hpp"
#include "stacks/stack.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/workload_library.hpp"

namespace stackscope {
namespace {

using sim::SimOptions;
using sim::SimResult;
using stacks::SpeculationMode;
using stacks::Stage;

constexpr double kTol = 1e-9;

template <typename StackT>
void
expectStacksClose(const StackT &ref, const StackT &bat, const char *what)
{
    std::vector<double> ref_v;
    ref.forEach([&](auto, double v) { ref_v.push_back(v); });
    std::size_t i = 0;
    bat.forEach([&](auto c, double v) {
        EXPECT_NEAR(ref_v[i], v, kTol)
            << what << " component " << static_cast<int>(c);
        ++i;
    });
}

void
expectIdentical(const SimResult &ref, const SimResult &bat,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(ref.cycles, bat.cycles);
    EXPECT_EQ(ref.instrs, bat.instrs);
    EXPECT_EQ(ref.stats.branch_mispredicts, bat.stats.branch_mispredicts);
    EXPECT_EQ(ref.stats.l1d_load_misses, bat.stats.l1d_load_misses);
    EXPECT_EQ(ref.stats.wrong_path_dispatched,
              bat.stats.wrong_path_dispatched);
    for (std::size_t s = 0; s < stacks::kNumStages; ++s)
        expectStacksClose(ref.cycle_stacks[s], bat.cycle_stacks[s],
                          "cycle stack");
    expectStacksClose(ref.flops_cycles, bat.flops_cycles, "flops stack");
}

SimResult
runOne(const sim::MachineConfig &machine, const trace::Workload &w,
       SpeculationMode mode, bool reference, std::uint64_t instrs,
       validate::ValidationPolicy policy = validate::ValidationPolicy::kOff)
{
    trace::SyntheticParams p = w.params;
    p.num_instrs = instrs;
    trace::SyntheticGenerator gen(p);
    SimOptions opt;
    opt.spec_mode = mode;
    opt.reference_engine = reference;
    // Identity is the property under test; the invariant suite covers
    // validation separately (short kSimple/kSpecCounters runs sit outside
    // the base-equality tolerance window by design).
    opt.validation = policy;
    return sim::simulate(machine, gen, opt);
}

/** The full Fig. 2 grid, every speculation mode, both engines. */
TEST(BatchedReference, Fig2GridAllSpecModes)
{
    for (const trace::Workload &w : trace::allSpecWorkloads()) {
        for (const char *mname : {"bdw", "knl"}) {
            const sim::MachineConfig machine = sim::machineByName(mname);
            for (SpeculationMode mode :
                 {SpeculationMode::kOracle, SpeculationMode::kSimple,
                  SpeculationMode::kSpecCounters}) {
                const SimResult ref =
                    runOne(machine, w, mode, /*reference=*/true, 10'000);
                const SimResult bat =
                    runOne(machine, w, mode, /*reference=*/false, 10'000);
                expectIdentical(ref, bat,
                                w.name + "@" + mname + " mode " +
                                    std::to_string(static_cast<int>(mode)));
            }
        }
    }
}

/** Warmup (measurement reset mid-run) must not perturb identity. */
TEST(BatchedReference, WarmupWindowIdentity)
{
    const sim::MachineConfig machine = sim::machineByName("bdw");
    trace::SyntheticParams p = trace::findWorkload("mcf").params;
    p.num_instrs = 20'000;
    trace::SyntheticGenerator gen(p);

    SimOptions opt;
    opt.warmup_instrs = 8'000;
    opt.validation = validate::ValidationPolicy::kStrict;

    opt.reference_engine = true;
    const SimResult ref = sim::simulate(machine, gen, opt);
    opt.reference_engine = false;
    const SimResult bat = sim::simulate(machine, gen, opt);
    expectIdentical(ref, bat, "mcf@bdw warmup");
}

/** Multicore shares an uncore (skip-ahead illegal there, batching still
 *  on): per-core results and the averaged stacks must stay identical. */
TEST(BatchedReference, MulticoreIdentity)
{
    const sim::MachineConfig machine = sim::machineByName("bdw");
    for (const char *wname : {"mcf", "lbm"}) {
        trace::SyntheticParams p = trace::findWorkload(wname).params;
        p.num_instrs = 8'000;
        trace::SyntheticGenerator gen(p);

        SimOptions opt;
        opt.validation = validate::ValidationPolicy::kWarn;

        opt.reference_engine = true;
        const sim::MulticoreResult ref =
            sim::simulateMulticore(machine, gen, 2, opt);
        opt.reference_engine = false;
        const sim::MulticoreResult bat =
            sim::simulateMulticore(machine, gen, 2, opt);

        ASSERT_EQ(ref.per_core.size(), bat.per_core.size());
        for (std::size_t c = 0; c < ref.per_core.size(); ++c)
            expectIdentical(ref.per_core[c], bat.per_core[c],
                            std::string(wname) + " core " +
                                std::to_string(c));
        EXPECT_TRUE(ref.validation.passed()) << ref.validation.summary();
        EXPECT_TRUE(bat.validation.passed()) << bat.validation.summary();
    }
}

/**
 * Interval snapshots read the accountants mid-run, which hands the
 * pending idle run over early (as do periodic validation checks): every
 * window, not just the final stacks, must match the reference engine.
 */
TEST(BatchedReference, IntervalSnapshotIdentity)
{
    for (const char *wname : {"mcf", "lbm", "cactus"}) {
        for (const char *mname : {"bdw", "knl"}) {
            const sim::MachineConfig machine = sim::machineByName(mname);
            for (SpeculationMode mode :
                 {SpeculationMode::kOracle, SpeculationMode::kSimple}) {
                trace::SyntheticParams p = trace::findWorkload(wname).params;
                p.num_instrs = 12'000;
                trace::SyntheticGenerator gen(p);
                SimOptions opt;
                opt.spec_mode = mode;
                opt.obs.interval_cycles = 1'000;
                opt.validation = validate::ValidationPolicy::kWarn;
                opt.validation_interval = 1'500;

                opt.reference_engine = true;
                const SimResult ref = sim::simulate(machine, gen, opt);
                opt.reference_engine = false;
                const SimResult bat = sim::simulate(machine, gen, opt);

                const std::string label =
                    std::string(wname) + "@" + mname + " mode " +
                    std::to_string(static_cast<int>(mode));
                expectIdentical(ref, bat, label);
                SCOPED_TRACE(label);
                const auto &rs = ref.intervals.samples;
                const auto &bs = bat.intervals.samples;
                ASSERT_GT(rs.size(), 2u);
                ASSERT_EQ(rs.size(), bs.size());
                for (std::size_t i = 0; i < rs.size(); ++i) {
                    SCOPED_TRACE("window " + std::to_string(i));
                    EXPECT_EQ(rs[i].start, bs[i].start);
                    EXPECT_EQ(rs[i].end, bs[i].end);
                    EXPECT_EQ(rs[i].instrs, bs[i].instrs);
                    for (std::size_t st = 0; st < stacks::kNumStages; ++st)
                        expectStacksClose(rs[i].cycle_stacks[st],
                                          bs[i].cycle_stacks[st],
                                          "interval cycle stack");
                    expectStacksClose(rs[i].flops_cycles,
                                      bs[i].flops_cycles,
                                      "interval flops stack");
                }
            }
        }
    }
}

/**
 * Regression for the stale-scoreboard blame bug: once the uop sequence
 * crosses the scoreboard's ring capacity a few times, a recycled entry
 * must never be consulted for blame (liveIncompleteProducer guard). A
 * dependence-heavy run long enough to wrap several times must keep both
 * engines identical and every invariant green under strict validation.
 */
TEST(BatchedReference, ScoreboardWrapBlameStaysIdentical)
{
    const sim::MachineConfig machine = sim::machineByName("bdw");
    // 30k uops cross the 4096-entry scoreboard ring 7+ times.
    for (const char *wname : {"mcf", "omnetpp", "bwaves"}) {
        const trace::Workload &w = trace::findWorkload(wname);
        const SimResult ref = runOne(machine, w, SpeculationMode::kOracle,
                                     /*reference=*/true, 30'000,
                                     validate::ValidationPolicy::kStrict);
        const SimResult bat = runOne(machine, w, SpeculationMode::kOracle,
                                     /*reference=*/false, 30'000,
                                     validate::ValidationPolicy::kStrict);
        expectIdentical(ref, bat, std::string("wrap ") + wname);
        EXPECT_TRUE(ref.validation.passed()) << ref.validation.summary();
        EXPECT_TRUE(bat.validation.passed()) << bat.validation.summary();
    }
}

/**
 * Heavy same-cycle writeback pressure: a wide ALU-dominated stream keeps
 * the calendar queue draining near-full groups of same-cycle completions
 * every cycle, while sparse long-latency loads park events several wheel
 * laps out. The accounting-visible tie order (WbEvent (done, seq)) and
 * multi-lap bucket sharing are exactly what this grid point stresses;
 * both engines must stay identical. (Validation stays off: this custom
 * mix sits outside the base-equality tolerance window, like the other
 * short synthetic runs — identity is the property under test.)
 */
TEST(BatchedReference, SameCycleWritebackPressureIdentity)
{
    trace::Workload w;
    w.name = "wbpressure";
    w.params.num_instrs = 0;  // set by runOne
    w.params.w_alu = 0.80;    // bursts of single-cycle completions
    w.params.w_mul = 0.05;    // a second latency class for mixed buckets
    w.params.w_load = 0.10;
    w.params.w_store = 0.02;
    w.params.w_branch = 0.03;
    w.params.chain_frac = 0.05;   // keep ILP high: full-width issue
    w.params.far_dep_frac = 0.10;
    w.params.second_src_frac = 0.05;
    w.params.hot_frac = 0.3;      // frequent misses hundreds of cycles out
    w.params.data_footprint = 8 << 20;
    for (const char *mname : {"bdw", "knl"}) {
        const sim::MachineConfig machine = sim::machineByName(mname);
        for (SpeculationMode mode :
             {SpeculationMode::kOracle, SpeculationMode::kSpecCounters}) {
            const SimResult ref =
                runOne(machine, w, mode, /*reference=*/true, 25'000);
            const SimResult bat =
                runOne(machine, w, mode, /*reference=*/false, 25'000);
            expectIdentical(ref, bat,
                            std::string("wbpressure@") + mname + " mode " +
                                std::to_string(static_cast<int>(mode)));
        }
    }
}

}  // namespace
}  // namespace stackscope
