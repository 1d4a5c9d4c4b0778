/** Unit tests for the Table III FLOPS stack accounting algorithm. */

#include "stacks/flops_accountant.hpp"

#include <gtest/gtest.h>

#include "random_state.hpp"

namespace stackscope::stacks {
namespace {

using testing::expectStacksNear;
using testing::randomState;

/** k=2 VPUs, v=16 lanes: peak = 64 flops/cycle. */
FlopsAccountantConfig
cfg()
{
    return {2, 16};
}

/** CycleState for n issued VFP uops, each a ops/lane over m lanes. */
CycleState
vfpCycle(unsigned n, double a, double m)
{
    CycleState s;
    s.n_vfp = n;
    s.vfp_lane_ops = a * m * n;
    s.vfp_nonfma_loss = (2.0 - a) * m * n;
    s.vfp_mask_loss = (16.0 - m) * n;
    return s;
}

TEST(FlopsAccountant, PeakCycleIsAllBase)
{
    FlopsAccountant fa(cfg());
    fa.tick(vfpCycle(2, 2.0, 16.0));  // two full FMAs
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kBase], 1.0);
    EXPECT_DOUBLE_EQ(fa.cycles().sum(), 1.0);
}

TEST(FlopsAccountant, NonFmaLoss)
{
    FlopsAccountant fa(cfg());
    fa.tick(vfpCycle(2, 1.0, 16.0));  // two full vector adds
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kNonFma], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles().sum(), 1.0);
}

TEST(FlopsAccountant, MaskLoss)
{
    FlopsAccountant fa(cfg());
    fa.tick(vfpCycle(2, 2.0, 8.0));  // two half-masked FMAs
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kMask], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles().sum(), 1.0);
}

TEST(FlopsAccountant, CombinedNonFmaAndMask)
{
    FlopsAccountant fa(cfg());
    fa.tick(vfpCycle(2, 1.0, 8.0));  // half-masked adds
    // Per Table III: f = 1*8*2/64 = 0.25; nonfma = 1*8*2/64 = 0.25;
    // mask = 2*(16-8)/32 = 0.5.
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kNonFma], 0.25);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kMask], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles().sum(), 1.0);
}

TEST(FlopsAccountant, FrontendWhenNoVfpInRs)
{
    FlopsAccountant fa(cfg());
    CycleState s;  // nothing issued, no VFP waiting
    s.vfp_in_rs = false;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kFrontend], 1.0);
}

TEST(FlopsAccountant, NonVfpWhenVpuStolen)
{
    FlopsAccountant fa(cfg());
    CycleState s = vfpCycle(1, 2.0, 16.0);  // one FMA issued
    s.vfp_in_rs = true;
    s.nonvfp_on_vpu = 1;  // the other VPU ran an integer vector op
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kNonVfp], 0.5);
}

TEST(FlopsAccountant, MemWhenProducerIsLoad)
{
    FlopsAccountant fa(cfg());
    CycleState s;
    s.vfp_in_rs = true;
    s.vfp_blame = VfpBlame::kMem;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kMem], 1.0);
}

TEST(FlopsAccountant, DependWhenProducerIsNotLoad)
{
    FlopsAccountant fa(cfg());
    CycleState s;
    s.vfp_in_rs = true;
    s.vfp_blame = VfpBlame::kDepend;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kDepend], 1.0);
}

TEST(FlopsAccountant, PartialVfpIssueSplitsRemainder)
{
    FlopsAccountant fa(cfg());
    CycleState s = vfpCycle(1, 2.0, 16.0);  // one of two VPUs doing an FMA
    s.vfp_in_rs = true;
    s.vfp_blame = VfpBlame::kMem;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kMem], 0.5);
    EXPECT_DOUBLE_EQ(fa.cycles().sum(), 1.0);
}

TEST(FlopsAccountant, UnschedCycle)
{
    FlopsAccountant fa(cfg());
    CycleState s;
    s.unsched = true;
    fa.tick(s);
    EXPECT_DOUBLE_EQ(fa.cycles()[FlopsComponent::kUnsched], 1.0);
}

TEST(FlopsAccountant, EveryCycleSumsToOne)
{
    // Property: components partition each cycle exactly (Table III).
    FlopsAccountant fa(cfg());
    const CycleState states[] = {
        vfpCycle(2, 2.0, 16.0), vfpCycle(1, 1.5, 12.0),
        vfpCycle(2, 1.0, 4.0),  vfpCycle(0, 0.0, 0.0),
    };
    int n = 0;
    for (int i = 0; i < 400; ++i) {
        CycleState s = states[i % 4];
        if (s.n_vfp < 2) {
            s.vfp_in_rs = i % 8 < 4;
            s.vfp_blame = VfpBlame::kMem;
            s.nonvfp_on_vpu = i % 16 < 2 ? 1 : 0;
        }
        fa.tick(s);
        ++n;
    }
    EXPECT_NEAR(fa.cycles().sum(), n, 1e-9);
}

TEST(FlopsAccountant, Equation1Conversion)
{
    FlopsAccountant fa(cfg());
    // 100 cycles at half peak.
    for (int i = 0; i < 100; ++i)
        fa.tick(vfpCycle(1, 2.0, 16.0));
    const double freq = 2.0e9;
    // Peak = 2*2*16 = 64 flops/cycle -> 128 GFLOPS machine peak.
    const FlopsStack f = fa.asFlops(100, freq);
    EXPECT_NEAR(f.sum(), 64.0 * freq, 1.0);
    EXPECT_NEAR(fa.achievedFlops(100, freq), 32.0 * freq, 1.0);
    EXPECT_DOUBLE_EQ(fa.peakFlopsPerCycle(), 64.0);
}

TEST(FlopsAccountant, ZeroCyclesGiveEmptyStack)
{
    FlopsAccountant fa(cfg());
    EXPECT_DOUBLE_EQ(fa.asFlops(0, 1e9).sum(), 0.0);
}

/** tickRepeat(s, 1) is the per-cycle path, bit for bit. */
TEST(FlopsAccountant, TickRepeatOneBitwiseEqualsTick)
{
    FlopsAccountant by_tick(cfg());
    FlopsAccountant by_repeat(cfg());
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const CycleState s = randomState(rng);
        by_tick.tick(s);
        by_repeat.tickRepeat(s, 1);
    }
    expectStacksNear(by_tick.cycles(), by_repeat.cycles(), 0.0);
}

/** An idle run (VFP work waiting on memory) scales linearly. */
TEST(FlopsAccountant, TickRepeatIdleRunMatchesRepeatedTicks)
{
    constexpr Cycle kRun = 1000;
    CycleState idle;
    idle.vfp_in_rs = true;
    idle.vfp_blame = VfpBlame::kMem;

    FlopsAccountant by_tick(cfg());
    FlopsAccountant by_repeat(cfg());
    by_tick.tick(vfpCycle(1, 1.0, 8.0));
    by_repeat.tick(vfpCycle(1, 1.0, 8.0));
    for (Cycle i = 0; i < kRun; ++i)
        by_tick.tick(idle);
    by_repeat.tickRepeat(idle, kRun);

    expectStacksNear(by_tick.cycles(), by_repeat.cycles(), 1e-9 * kRun);
    EXPECT_DOUBLE_EQ(by_repeat.cycles()[FlopsComponent::kMem],
                     static_cast<double>(kRun));
    EXPECT_NEAR(by_repeat.cycles().sum(), kRun + 1.0, 1e-9 * kRun);
}

}  // namespace
}  // namespace stackscope::stacks
