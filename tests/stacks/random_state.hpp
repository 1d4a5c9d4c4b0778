/** Shared test helpers: random CycleState observations and a stack
 *  comparison for the accountants' tick/tickRepeat suites. */

#ifndef STACKSCOPE_TESTS_STACKS_RANDOM_STATE_HPP
#define STACKSCOPE_TESTS_STACKS_RANDOM_STATE_HPP

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "stacks/cycle_state.hpp"

namespace stackscope::stacks::testing {

/** Any field combination, including unscheduled and wrong-path cycles. */
inline CycleState
randomState(Rng &rng)
{
    CycleState s;
    s.n_dispatch = static_cast<std::uint32_t>(rng.below(5));
    s.n_dispatch_wrong = static_cast<std::uint32_t>(rng.below(5));
    s.fe_has_correct = rng.chance(0.5);
    s.fe_has_any = s.fe_has_correct || rng.chance(0.5);
    s.fe_reason = static_cast<FrontendReason>(rng.below(5));
    s.backend_full = rng.chance(0.3);
    s.rob_empty_correct = rng.chance(0.3);
    s.rob_empty_any = s.rob_empty_correct && rng.chance(0.5);
    s.head_incomplete = rng.chance(0.5);
    s.head_blame = static_cast<BackendBlame>(rng.below(4));
    s.n_issue = static_cast<std::uint32_t>(rng.below(5));
    s.n_issue_wrong = static_cast<std::uint32_t>(rng.below(5));
    s.rs_empty_correct = rng.chance(0.3);
    s.rs_empty_any = s.rs_empty_correct && rng.chance(0.5);
    s.ready_unissued = rng.chance(0.3);
    s.issue_blame = static_cast<BackendBlame>(rng.below(4));
    s.n_commit = static_cast<std::uint32_t>(rng.below(5));
    s.n_vfp = static_cast<std::uint32_t>(rng.below(3));
    s.vfp_lane_ops = static_cast<double>(rng.below(64));
    s.vfp_nonfma_loss = static_cast<double>(rng.below(32));
    s.vfp_mask_loss = static_cast<double>(rng.below(32));
    s.vfp_in_rs = rng.chance(0.4);
    s.nonvfp_on_vpu = static_cast<std::uint32_t>(rng.below(3));
    s.vfp_blame = static_cast<VfpBlame>(rng.below(3));
    s.unsched = rng.chance(0.1);
    return s;
}

/** Every component of @p a and @p b within @p tol (0 = equal). */
template <typename StackT>
void
expectStacksNear(const StackT &a, const StackT &b, double tol)
{
    a.forEach([&](auto c, double v) {
        EXPECT_NEAR(v, b[c], tol) << "component " << static_cast<int>(c);
    });
}

}  // namespace stackscope::stacks::testing

#endif  // STACKSCOPE_TESTS_STACKS_RANDOM_STATE_HPP
