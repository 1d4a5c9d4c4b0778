/**
 * @file
 * Per-cycle CPI stack accounting at the dispatch, issue and commit stages:
 * a faithful implementation of the paper's Table II algorithms, extended
 * with the microcode/other/unsched components and the width-normalization
 * rule of §III-A (W = minimum stage width; fractions above 1 carry over to
 * the next cycle).
 *
 * tickRepeat() accounts a run of cycles that all observe the same
 * CycleState; tick() is the run of one. A run of idle cycles folds into
 * one add once the carry has drained (docs/performance.md), which the
 * golden suite checks against one tick per cycle
 * (tests/core/batched_reference_test.cpp).
 */

#ifndef STACKSCOPE_STACKS_CPI_ACCOUNTANT_HPP
#define STACKSCOPE_STACKS_CPI_ACCOUNTANT_HPP

#include <cstdint>

#include "stacks/cycle_state.hpp"
#include "stacks/speculation.hpp"
#include "stacks/stack.hpp"

namespace stackscope::stacks {

/** Configuration of one per-stage accountant. */
struct CpiAccountantConfig
{
    Stage stage = Stage::kDispatch;
    /**
     * Effective accounting width W: the minimum width over all pipeline
     * stages (§III-A). Using the minimum everywhere keeps the base
     * component equal across stacks and models wider stages through the
     * carry-over rule.
     */
    unsigned effective_width = 4;
    SpeculationMode spec_mode = SpeculationMode::kOracle;
};

/**
 * One CPI stack, accumulated cycle by cycle at a fixed pipeline stage.
 */
class CpiAccountant
{
  public:
    explicit CpiAccountant(const CpiAccountantConfig &config);

    /** Account one cycle. */
    void tick(const CycleState &state) { tickRepeat(state, 1); }

    /**
     * Account @p n consecutive cycles that all observe @p state (n = 0
     * is a no-op). The per-cycle body runs while the §III-A carry is
     * draining or the stage moved uops; once neither holds, every
     * remaining cycle adds 1.0 to the same component, and they fold into
     * one add. Bitwise equal to tick() for n == 1; otherwise equal to n
     * ticks up to summation order (~1e-9 of the aggregate).
     */
    void tickRepeat(const CycleState &state, Cycle n);

    /** @name Branch events (used by SpeculationMode::kSpecCounters) @{ */
    void onBranchFetched(SeqNum seq);
    void onBranchResolved(SeqNum seq, bool mispredicted);
    /** @} */

    /** Flush speculative buffers; call once after the last tick. */
    void finalize();

    /**
     * kSimple-mode post-processing (§III-B / Yasin): move this stack's
     * base surplus over the commit stack's base into the bpred component.
     */
    void applySimpleFixup(double commit_base);

    /**
     * Per-component cycle counts. In kSpecCounters mode, valid only after
     * finalize().
     */
    const CpiStack &cycles() const;

    /** The stack expressed in CPI units (cycles / @p instructions). */
    CpiStack cpi(std::uint64_t instructions) const;

    Stage stage() const { return config_.stage; }
    SpeculationMode speculationMode() const { return config_.spec_mode; }

    /** Total accounted cycles (sum of all components). */
    double accountedCycles() const { return cycles().sum(); }

  private:
    void add(CpiComponent c, double value);
    double usefulFraction(std::uint32_t n_correct, std::uint32_t n_wrong);

    /** @name Pure Table II classification @{ */
    static CpiComponent frontendComponent(FrontendReason reason);
    static CpiComponent backendComponent(BackendBlame blame);
    static CpiComponent classifyDispatch(bool fe_empty, bool backend_full,
                                         FrontendReason fe_reason,
                                         BackendBlame head_blame);
    static CpiComponent classifyIssue(bool rs_empty, bool backend_full,
                                      FrontendReason fe_reason,
                                      BackendBlame head_blame,
                                      BackendBlame issue_blame);
    static CpiComponent classifyCommit(bool rob_empty, bool head_incomplete,
                                       FrontendReason fe_reason,
                                       BackendBlame head_blame);
    /** @} */

    CpiAccountantConfig config_;
    CpiStack cycles_;
    SpeculativeCounters spec_;
    double carry_ = 0.0;
    bool finalized_ = false;
};

}  // namespace stackscope::stacks

#endif  // STACKSCOPE_STACKS_CPI_ACCOUNTANT_HPP
