/** Unit tests for the Table II per-stage CPI accounting algorithms,
 *  driven by hand-constructed CycleState sequences. */

#include "stacks/cpi_accountant.hpp"

#include <gtest/gtest.h>

#include <string>

#include "random_state.hpp"

namespace stackscope::stacks {
namespace {

using testing::expectStacksNear;
using testing::randomState;

CpiAccountantConfig
cfg(Stage stage, unsigned width = 4,
    SpeculationMode mode = SpeculationMode::kOracle)
{
    return {stage, width, mode};
}

/** A fully-utilized cycle. */
CycleState
fullCycle(unsigned width = 4)
{
    CycleState s;
    s.n_dispatch = width;
    s.n_issue = width;
    s.n_commit = width;
    s.fe_has_correct = true;
    s.fe_has_any = true;
    s.rob_empty_correct = false;
    s.rob_empty_any = false;
    s.rs_empty_correct = false;
    s.rs_empty_any = false;
    return s;
}

TEST(CpiAccountant, FullWidthAccountsBaseOnly)
{
    CpiAccountant a(cfg(Stage::kDispatch));
    for (int i = 0; i < 10; ++i)
        a.tick(fullCycle());
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 10.0);
    EXPECT_DOUBLE_EQ(a.cycles().sum(), 10.0);
}

TEST(CpiAccountant, PartialWidthSplitsBaseAndStall)
{
    CpiAccountant a(cfg(Stage::kDispatch));
    CycleState s = fullCycle();
    s.n_dispatch = 1;  // f = 1/4
    s.fe_has_correct = false;
    s.fe_has_any = false;
    s.fe_reason = FrontendReason::kIcache;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kIcache], 0.75);
}

TEST(CpiAccountant, DispatchFrontendReasons)
{
    const struct
    {
        FrontendReason reason;
        CpiComponent comp;
    } cases[] = {
        {FrontendReason::kIcache, CpiComponent::kIcache},
        {FrontendReason::kBpred, CpiComponent::kBpred},
        {FrontendReason::kMicrocode, CpiComponent::kMicrocode},
        {FrontendReason::kDrain, CpiComponent::kOther},
    };
    for (const auto &c : cases) {
        CpiAccountant a(cfg(Stage::kDispatch));
        CycleState s;
        s.fe_reason = c.reason;
        a.tick(s);
        a.finalize();
        EXPECT_DOUBLE_EQ(a.cycles()[c.comp], 1.0)
            << static_cast<int>(c.reason);
    }
}

TEST(CpiAccountant, DispatchBackendFullBlamesHead)
{
    const struct
    {
        BackendBlame blame;
        CpiComponent comp;
    } cases[] = {
        {BackendBlame::kDcache, CpiComponent::kDcache},
        {BackendBlame::kAluLat, CpiComponent::kAluLat},
        {BackendBlame::kDepend, CpiComponent::kDepend},
    };
    for (const auto &c : cases) {
        CpiAccountant a(cfg(Stage::kDispatch));
        CycleState s;
        s.fe_has_correct = true;  // frontend has work, backend is full
        s.fe_has_any = true;
        s.backend_full = true;
        s.head_blame = c.blame;
        a.tick(s);
        a.finalize();
        EXPECT_DOUBLE_EQ(a.cycles()[c.comp], 1.0);
    }
}

TEST(CpiAccountant, DispatchFrontendEmptyHasPriorityOverBackendFull)
{
    // Table II checks "FE empty" before "ROB or RS full".
    CpiAccountant a(cfg(Stage::kDispatch));
    CycleState s;
    s.fe_has_correct = false;
    s.fe_has_any = false;
    s.fe_reason = FrontendReason::kIcache;
    s.backend_full = true;
    s.head_blame = BackendBlame::kDcache;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kIcache], 1.0);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kDcache], 0.0);
}

TEST(CpiAccountant, IssueBlamesProducerOfFirstNonReady)
{
    CpiAccountant a(cfg(Stage::kIssue));
    CycleState s;
    s.rs_empty_correct = false;
    s.rs_empty_any = false;
    s.issue_blame = BackendBlame::kDcache;
    a.tick(s);
    s.issue_blame = BackendBlame::kAluLat;
    a.tick(s);
    s.issue_blame = BackendBlame::kDepend;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kDcache], 1.0);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kAluLat], 1.0);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kDepend], 1.0);
}

TEST(CpiAccountant, IssueStructuralStallIsOther)
{
    CpiAccountant a(cfg(Stage::kIssue));
    CycleState s;
    s.rs_empty_correct = false;
    s.rs_empty_any = false;
    s.ready_unissued = true;
    s.issue_blame = BackendBlame::kNone;
    s.n_issue = 2;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 0.5);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kOther], 0.5);
}

TEST(CpiAccountant, IssueRsEmptyUsesFrontendReason)
{
    CpiAccountant a(cfg(Stage::kIssue));
    CycleState s;
    s.rs_empty_correct = true;
    s.rs_empty_any = true;
    s.fe_reason = FrontendReason::kBpred;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBpred], 1.0);
}

TEST(CpiAccountant, IssueRsEmptyWithBackendFullBlamesHead)
{
    // RS drained while the ROB is full (long Dcache miss): backend stall.
    CpiAccountant a(cfg(Stage::kIssue));
    CycleState s;
    s.rs_empty_correct = true;
    s.rs_empty_any = true;
    s.backend_full = true;
    s.head_blame = BackendBlame::kDcache;
    s.fe_reason = FrontendReason::kNone;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kDcache], 1.0);
}

TEST(CpiAccountant, CommitRobEmptyUsesFrontend)
{
    CpiAccountant a(cfg(Stage::kCommit));
    CycleState s;
    s.rob_empty_correct = true;
    s.rob_empty_any = true;
    s.fe_reason = FrontendReason::kIcache;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kIcache], 1.0);
}

TEST(CpiAccountant, CommitHeadIncompleteBlamesHead)
{
    CpiAccountant a(cfg(Stage::kCommit));
    CycleState s;
    s.rob_empty_correct = false;
    s.rob_empty_any = false;
    s.head_incomplete = true;
    s.head_blame = BackendBlame::kAluLat;
    s.n_commit = 1;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kAluLat], 0.75);
}

TEST(CpiAccountant, UnschedCycles)
{
    CpiAccountant a(cfg(Stage::kCommit));
    CycleState s;
    s.unsched = true;
    a.tick(s);
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kUnsched], 2.0);
    EXPECT_DOUBLE_EQ(a.cycles().sum(), 2.0);
}

TEST(CpiAccountant, WidthCarryOverForWiderStage)
{
    // Issue stage wider than W: issuing 6 with W=4 gives f=1.5; the 0.5
    // excess transfers to the next cycle (§III-A).
    CpiAccountant a(cfg(Stage::kIssue, 4));
    CycleState s = fullCycle();
    s.n_issue = 6;
    a.tick(s);
    CycleState idle;
    idle.rs_empty_correct = true;
    idle.rs_empty_any = true;
    idle.fe_reason = FrontendReason::kIcache;
    a.tick(idle);
    a.finalize();
    // Cycle 1: base 1.0. Cycle 2: carry 0.5 -> base 0.5, icache 0.5.
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 1.5);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kIcache], 0.5);
    EXPECT_DOUBLE_EQ(a.cycles().sum(), 2.0);
}

TEST(CpiAccountant, EveryCycleSumsToOne)
{
    // Property: whatever the state, each tick adds exactly 1 cycle
    // (barring carry-over, which this state sequence avoids).
    CpiAccountant a(cfg(Stage::kDispatch));
    CycleState states[4];
    states[0] = fullCycle();
    states[1].fe_reason = FrontendReason::kBpred;
    states[2].backend_full = true;
    states[2].fe_has_correct = true;
    states[2].fe_has_any = true;
    states[2].head_blame = BackendBlame::kDcache;
    states[3].unsched = true;
    double expected = 0.0;
    for (int i = 0; i < 100; ++i) {
        a.tick(states[i % 4]);
        expected += 1.0;
    }
    a.finalize();
    EXPECT_NEAR(a.cycles().sum(), expected, 1e-9);
}

TEST(CpiAccountant, CpiDividesByInstructions)
{
    CpiAccountant a(cfg(Stage::kCommit));
    for (int i = 0; i < 8; ++i)
        a.tick(fullCycle());
    a.finalize();
    const CpiStack cpi = a.cpi(32);  // 8 cycles, 32 instrs
    EXPECT_DOUBLE_EQ(cpi[CpiComponent::kBase], 0.25);
    EXPECT_DOUBLE_EQ(a.cpi(0).sum(), 0.0);
}

TEST(CpiAccountant, SimpleModeCountsWrongPathThenFixup)
{
    CpiAccountant a(cfg(Stage::kDispatch, 4, SpeculationMode::kSimple));
    // 2 correct + 2 wrong-path uops per cycle for 10 cycles.
    CycleState s = fullCycle();
    s.n_dispatch = 2;
    s.n_dispatch_wrong = 2;
    for (int i = 0; i < 10; ++i)
        a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 10.0);
    // Commit-stage base would be 5.0 -> surplus 5 moves to bpred.
    a.applySimpleFixup(5.0);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 5.0);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBpred], 5.0);
}

TEST(CpiAccountant, OracleModeIgnoresWrongPath)
{
    CpiAccountant a(cfg(Stage::kDispatch, 4, SpeculationMode::kOracle));
    CycleState s = fullCycle();
    s.n_dispatch = 0;
    s.n_dispatch_wrong = 4;
    s.fe_has_correct = false;  // only wrong-path work available
    s.fe_reason = FrontendReason::kBpred;
    a.tick(s);
    a.finalize();
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBase], 0.0);
    EXPECT_DOUBLE_EQ(a.cycles()[CpiComponent::kBpred], 1.0);
}

/** tickRepeat(s, 1) is the per-cycle path, bit for bit. */
TEST(CpiAccountant, TickRepeatOneBitwiseEqualsTick)
{
    for (SpeculationMode mode :
         {SpeculationMode::kOracle, SpeculationMode::kSimple,
          SpeculationMode::kSpecCounters}) {
        for (Stage stage :
             {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
            SCOPED_TRACE(std::string(toString(stage)) + " mode " +
                         std::to_string(static_cast<int>(mode)));
            CpiAccountant by_tick(cfg(stage, 4, mode));
            CpiAccountant by_repeat(cfg(stage, 4, mode));
            Rng rng(99);
            for (int i = 0; i < 500; ++i) {
                const CycleState s = randomState(rng);
                by_tick.tick(s);
                by_repeat.tickRepeat(s, 1);
            }
            by_tick.finalize();
            by_repeat.finalize();
            expectStacksNear(by_tick.cycles(), by_repeat.cycles(), 0.0);
        }
    }
}

/**
 * An idle run folded by tickRepeat equals the same cycle ticked n times
 * to within summation order — including a §III-A carry that takes
 * several idle cycles to drain, and an unscheduled run.
 */
TEST(CpiAccountant, TickRepeatIdleRunMatchesRepeatedTicks)
{
    constexpr Cycle kRun = 1000;
    CycleState burst = fullCycle(7);  // f = 3.5 at W = 2: carry 2.5
    CycleState idle;                  // nothing dispatched/issued/committed
    idle.fe_reason = FrontendReason::kIcache;
    idle.rob_empty_correct = false;
    idle.rob_empty_any = false;
    idle.head_incomplete = true;
    idle.head_blame = BackendBlame::kDcache;
    idle.rs_empty_correct = false;
    idle.rs_empty_any = false;
    idle.issue_blame = BackendBlame::kDcache;
    CycleState unsched;
    unsched.unsched = true;

    for (Stage stage : {Stage::kDispatch, Stage::kIssue, Stage::kCommit}) {
        SCOPED_TRACE(toString(stage));
        CpiAccountant by_tick(cfg(stage, 2));
        CpiAccountant by_repeat(cfg(stage, 2));
        by_tick.tick(burst);
        by_repeat.tick(burst);
        for (Cycle i = 0; i < kRun; ++i)
            by_tick.tick(idle);
        by_repeat.tickRepeat(idle, kRun);
        for (Cycle i = 0; i < kRun; ++i)
            by_tick.tick(unsched);
        by_repeat.tickRepeat(unsched, kRun);
        by_repeat.tickRepeat(idle, 0);  // an empty run is a no-op
        by_tick.finalize();
        by_repeat.finalize();

        expectStacksNear(by_tick.cycles(), by_repeat.cycles(), 1e-9 * kRun);
        EXPECT_NEAR(by_repeat.accountedCycles(), 2.0 * kRun + 1.0,
                    1e-9 * kRun);
        EXPECT_DOUBLE_EQ(by_repeat.cycles()[CpiComponent::kUnsched],
                         static_cast<double>(kRun));
        // The burst's 3.5 cycles of work drain into the base component.
        EXPECT_NEAR(by_repeat.cycles()[CpiComponent::kBase], 3.5, 1e-12);
    }
}

}  // namespace
}  // namespace stackscope::stacks
