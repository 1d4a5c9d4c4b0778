#include "core/ooo_core.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/simd.hpp"

namespace stackscope::core {

using stacks::BackendBlame;
using stacks::CycleState;
using stacks::FrontendReason;
using stacks::Stage;
using stacks::VfpBlame;
using trace::InstrClass;
using uarch::InflightInstr;

OooCore::OooCore(const CoreParams &params,
                 std::unique_ptr<trace::TraceSource> trace,
                 uarch::Uncore *shared_uncore)
    : params_(params),
      trace_(std::move(trace)),
      mem_(params.mem, shared_uncore),
      bp_(params.bpred),
      fu_(params.fu),
      rob_(params.rob_size),
      rs_(params.rs_size, params.rob_size),
      fetch_q_(params.fetch_queue_size),
      wp_rng_(params.wrong_path_seed),
      scoreboard_(kScoreboardSize),
      pending_stores_(params.rob_size),
      store_filter_(kStoreFilterSize, 0),
      acct_dispatch_({Stage::kDispatch,
                      params.accounting_native_widths
                          ? params.dispatch_width
                          : params.effectiveWidth(),
                      params.spec_mode}),
      acct_issue_({Stage::kIssue,
                   params.accounting_native_widths ? params.issue_width
                                                   : params.effectiveWidth(),
                   params.spec_mode}),
      acct_commit_({Stage::kCommit,
                    params.accounting_native_widths
                        ? params.commit_width
                        : params.effectiveWidth(),
                    params.spec_mode}),
      flops_({params.fu.vpu_units, params.flops_vec_lanes}),
      has_shared_uncore_(shared_uncore != nullptr)
{
    assert(trace_);
    assert(trace::kMaxDepDistance + params_.rob_size < kScoreboardSize);
    // ScoreEntry::waiters stores ROB slots as uint16_t.
    assert(params_.rob_size <= 0xffff);
    const std::uint64_t line = mem_.params().l1i.line_bytes;
    if (line > 1 && (line & (line - 1)) == 0) {
        while ((std::uint64_t{1} << ifetch_line_shift_) < line)
            ++ifetch_line_shift_;
    }
    updateSkipAllowed();
}

const stacks::CpiAccountant &
OooCore::accountant(Stage stage) const
{
    // Logical constness: accounting the pending run changes no observable
    // result, it only moves already-observed cycles into the accountant.
    const_cast<OooCore *>(this)->flushPending();
    switch (stage) {
      case Stage::kDispatch: return acct_dispatch_;
      case Stage::kIssue: return acct_issue_;
      case Stage::kCommit: return acct_commit_;
      case Stage::kCount: break;
    }
    assert(false);
    return acct_dispatch_;
}

const stacks::FlopsAccountant &
OooCore::flopsAccountant() const
{
    const_cast<OooCore *>(this)->flushPending();
    return flops_;
}

OooCore::ScoreEntry &
OooCore::scoreSlot(std::uint64_t trace_index)
{
    return scoreboard_[trace_index % kScoreboardSize];
}

bool
OooCore::producerComplete(std::uint64_t trace_index) const
{
    const ScoreEntry &se = scoreboard_[trace_index % kScoreboardSize];
    if (se.trace_index != trace_index) {
        // The entry has been recycled: the producer left the pipeline long
        // ago (the scoreboard is sized so this is the only possibility).
        return true;
    }
    return se.complete_at <= now_;
}

const OooCore::ScoreEntry *
OooCore::liveIncompleteProducer(std::uint64_t trace_index) const
{
    const ScoreEntry &se = scoreboard_[trace_index % kScoreboardSize];
    if (se.trace_index != trace_index || se.complete_at <= now_)
        return nullptr;
    return &se;
}

bool
OooCore::entryReady(const InflightInstr &e, bool &store_conflict) const
{
    store_conflict = false;
    if (e.wrong_path) {
        if (e.wp_dep_slot >= 0 &&
            rob_.holds(static_cast<unsigned>(e.wp_dep_slot), e.wp_dep_seq)) {
            return rob_.at(static_cast<unsigned>(e.wp_dep_slot)).completed;
        }
        return true;
    }
    for (unsigned i = 0; i < e.instr.num_srcs; ++i) {
        if (!producerComplete(e.instr.src[i]))
            return false;
    }
    if (e.instr.isLoad()) {
        // A load whose address matches an older, not-yet-executed store
        // must wait (issue-stage structural stall, "Other"). The counting
        // filter skips the queue walk when no pending store can possibly
        // share the word address (the common case).
        const Addr word = e.instr.mem_addr / 8;
        if (store_filter_[word & (kStoreFilterSize - 1)] != 0) {
            const std::size_t n = pending_stores_.size();
            for (std::size_t i = 0; i < n; ++i) {
                const PendingStore &ps = pending_stores_[i];
                if (ps.seq >= e.seq)
                    break;
                if (ps.word_addr == word && rob_.holds(ps.slot, ps.seq) &&
                    !rob_.at(ps.slot).completed) {
                    store_conflict = true;
                    return false;
                }
            }
        }
    }
    return true;
}

stacks::BackendBlame
OooCore::blameProducer(const InflightInstr &e) const
{
    if (e.wrong_path)
        return BackendBlame::kDepend;

    // Table II (issue): i = prod(first non-ready instr). Pick the
    // latest-completing incomplete producer as the binding one; producers
    // that have not even issued count as latest of all.
    const ScoreEntry *binding = nullptr;
    Cycle binding_done = 0;
    for (unsigned i = 0; i < e.instr.num_srcs; ++i) {
        const ScoreEntry *se = liveIncompleteProducer(e.instr.src[i]);
        if (se == nullptr)
            continue;
        if (binding == nullptr || se->complete_at >= binding_done) {
            binding = se;
            binding_done = se->complete_at;
        }
    }
    if (binding == nullptr)
        return BackendBlame::kDepend;
    if (!binding->issued)
        return BackendBlame::kDepend;
    if (binding->dcache_miss)
        return BackendBlame::kDcache;
    if (binding->exec_latency > 1)
        return BackendBlame::kAluLat;
    return BackendBlame::kDepend;
}

void
OooCore::classifyBlocked(const InflightInstr &e, Cycle &lb,
                         stacks::BackendBlame &blame,
                         std::uint64_t &unissued_src) const
{
    lb = 0;
    blame = BackendBlame::kDepend;
    unissued_src = kNoSeq;
    if (e.wrong_path) {
        if (e.wp_dep_slot >= 0 &&
            rob_.holds(static_cast<unsigned>(e.wp_dep_slot), e.wp_dep_seq)) {
            const InflightInstr &d =
                rob_.at(static_cast<unsigned>(e.wp_dep_slot));
            // An issued dependence completes exactly at its writeback
            // event; an unissued one has no bound yet.
            if (d.issued)
                lb = d.complete_cycle;
        }
        return;
    }
    // Same binding-producer selection as blameProducer(). The bound is
    // only sound when every incomplete producer has issued: readiness is
    // then exactly the latest completion, and the binding (and therefore
    // the blame) cannot change before that cycle because every other
    // producer completes no later.
    const ScoreEntry *binding = nullptr;
    Cycle binding_done = 0;
    bool all_issued = true;
    for (unsigned i = 0; i < e.instr.num_srcs; ++i) {
        const ScoreEntry *se = liveIncompleteProducer(e.instr.src[i]);
        if (se == nullptr)
            continue;
        if (!se->issued) {
            all_issued = false;
            if (unissued_src == kNoSeq)
                unissued_src = se->trace_index;
        }
        if (binding == nullptr || se->complete_at >= binding_done) {
            binding = se;
            binding_done = se->complete_at;
        }
    }
    if (binding == nullptr || !binding->issued) {
        blame = BackendBlame::kDepend;
    } else if (binding->dcache_miss) {
        blame = BackendBlame::kDcache;
    } else if (binding->exec_latency > 1) {
        blame = BackendBlame::kAluLat;
    } else {
        blame = BackendBlame::kDepend;
    }
    if (binding != nullptr && all_issued)
        lb = binding_done;
}

stacks::BackendBlame
OooCore::headBlame() const
{
    if (rob_.empty())
        return BackendBlame::kNone;
    const InflightInstr &h = rob_.head();
    if (h.completed)
        return BackendBlame::kNone;
    if (h.dcache_miss)
        return BackendBlame::kDcache;
    if (h.issued)
        return h.exec_latency > 1 ? BackendBlame::kAluLat
                                  : BackendBlame::kDepend;
    // Not yet issued: the head has no incomplete producers (everything
    // older has committed), so classify by its static latency.
    const Cycle lat = trace::isMemory(h.instr.cls) ? params_.mem.l1_lat
                                                   : fu_.latency(h.instr.cls);
    return lat > 1 ? BackendBlame::kAluLat : BackendBlame::kDepend;
}

void
OooCore::captureHeadState()
{
    cs_.rob_empty_any = rob_.empty();
    cs_.rob_empty_correct = rob_correct_ == 0;
    cs_.head_incomplete = !rob_.empty() && !rob_.head().completed;
    cs_.head_blame = headBlame();
}

void
OooCore::onBranchFetchedAll(SeqNum seq)
{
    // Only spec-counter epochs consume branch events (the accountants
    // ignore them under oracle/simple), so everything else skips the
    // three forwarding calls per branch.
    if (!params_.accounting_enabled ||
        params_.spec_mode != stacks::SpeculationMode::kSpecCounters)
        return;
    // Spec-counter epochs are order-sensitive with respect to branch
    // events: account the pending run before the event, exactly as the
    // per-cycle reference interleaves them.
    flushPending();
    acct_dispatch_.onBranchFetched(seq);
    acct_issue_.onBranchFetched(seq);
    acct_commit_.onBranchFetched(seq);
}

void
OooCore::onBranchResolvedAll(SeqNum seq, bool mispredicted)
{
    if (!params_.accounting_enabled ||
        params_.spec_mode != stacks::SpeculationMode::kSpecCounters)
        return;
    flushPending();
    acct_dispatch_.onBranchResolved(seq, mispredicted);
    acct_issue_.onBranchResolved(seq, mispredicted);
    acct_commit_.onBranchResolved(seq, mispredicted);
}

void
OooCore::doWriteback()
{
    // Events drain in (done, seq) order — the WbEvent comparator contract
    // (see wb_calendar.hpp for the tie-order legality argument). The drain
    // callback never pushes: squashAfter only removes pipeline state.
    wb_cal_.drainUpTo(now_, [&](const WbEvent &ev) {
        progress_ = true;
        if (!rob_.holds(ev.slot, ev.seq))
            return;  // squashed
        InflightInstr &e = rob_.at(ev.slot);
        if (e.completed)
            return;
        e.completed = true;
        e.complete_cycle = now_;
        if (e.mispredicted && !e.wrong_path)
            squashAfter(ev.slot, ev.seq);
    });
}

void
OooCore::squashAfter(unsigned branch_slot, SeqNum branch_seq)
{
    progress_ = true;
    rob_.squashYounger(branch_slot, [&](InflightInstr &sq) {
        ++stats_.squashed_uops;
        (void)sq;
    });
    rs_.removeIf([&](unsigned s) { return !rob_.isLiveSlot(s); });
    rs_counts_valid_ = false;
    while (!pending_stores_.empty() &&
           !rob_.holds(pending_stores_.back().slot,
                       pending_stores_.back().seq)) {
        --store_filter_[pending_stores_.back().word_addr &
                        (kStoreFilterSize - 1)];
        pending_stores_.pop_back();
    }
    recountRsVfp();
    // Everything in the fetch queue is wrong-path by construction.
    fetch_q_.clear();
    fetch_q_correct_ = 0;
    wrong_path_mode_ = false;
    wp_last_producer_slot_ = -1;
    wp_last_producer_seq_ = kNoSeq;
    redirect_until_ =
        std::max<Cycle>(redirect_until_, now_ + params_.frontend_depth);
    onBranchResolvedAll(branch_seq, /*mispredicted=*/true);
}

void
OooCore::recountRsVfp()
{
    rs_vfp_correct_ = 0;
    const std::uint8_t *tags = rs_.tags();
    const unsigned n = rs_.size();
    for (unsigned pos = 0; pos < n; ++pos)
        rs_vfp_correct_ += tags[pos] != 0;
}

void
OooCore::doCommit()
{
    // Commit-width batching: walk the contiguous completed prefix applying
    // side effects in sequence order (stores drain oldest-first — the
    // pending_stores_ seq-order invariant), then retire the whole span
    // with one ROB head/count update and one counter adjustment instead of
    // per-uop bookkeeping.
    const unsigned cap = rob_.capacity();
    const unsigned avail = std::min(params_.commit_width, rob_.size());
    unsigned slot = avail > 0 ? rob_.headSlot() : 0;
    unsigned n = 0;
    while (n < avail) {
        InflightInstr &h = rob_.at(slot);
        if (!h.completed)
            break;
        assert(!h.wrong_path);
        if (h.instr.isStore()) {
            mem_.store(h.instr.mem_addr, now_);
            if (!pending_stores_.empty() &&
                pending_stores_.front().seq == h.seq) {
                --store_filter_[pending_stores_.front().word_addr &
                                (kStoreFilterSize - 1)];
                pending_stores_.pop_front();
            }
        }
        if (h.instr.isBranch() && !h.mispredicted)
            onBranchResolvedAll(h.seq, /*mispredicted=*/false);
        ++n;
        if (++slot == cap)
            slot = 0;
    }
    if (n > 0) {
        rob_.popHeads(n);
        stats_.instrs_committed += n;
        rob_correct_ -= n;
        progress_ = true;
    }
    cs_.n_commit = n;
    captureHeadState();
}

void
OooCore::issueOne(unsigned slot)
{
    InflightInstr &e = rob_.at(slot);
    fu_.issue(e.instr.cls, now_);

    Cycle lat = 1;
    if (e.instr.isLoad()) {
        if (e.wrong_path) {
            lat = params_.mem.l1_lat;
        } else {
            const uarch::AccessResult res =
                mem_.load(e.instr.mem_addr, now_);
            lat = std::max<Cycle>(1, res.done - now_);
            e.dcache_miss = !res.l1_hit;
            ++stats_.loads;
            if (e.dcache_miss)
                ++stats_.l1d_load_misses;
        }
    } else if (e.instr.isStore()) {
        lat = 1;  // address resolution; data drains to cache at commit
    } else {
        lat = std::max<Cycle>(1, fu_.latency(e.instr.cls));
    }

    e.issued = true;
    e.issue_cycle = now_;
    e.exec_latency = lat;
    e.complete_cycle = now_ + lat;
    wb_cal_.push(WbEvent{now_ + lat, slot, e.seq});

    if (!e.wrong_path) {
        ScoreEntry &se = scoreSlot(e.trace_index);
        se.complete_at = now_ + lat;
        se.exec_latency = static_cast<std::uint32_t>(lat);
        se.dcache_miss = e.dcache_miss;
        se.issued = true;
        // Re-arm consumers parked on this producer: their bound is
        // computable now that the completion time is known. A waiter whose
        // slot has since left the RS (issued/committed/squashed, possibly
        // recycled) is a no-op inside rearmSlot.
        for (unsigned i = 0; i < se.num_waiters; ++i)
            rearmed_waiter_ |= rs_.rearmSlot(se.waiters[i]);
        se.num_waiters = 0;

        if (trace::isVfp(e.instr.cls)) {
            const double a = trace::flopsPerLane(e.instr.cls);
            const double v = params_.flops_vec_lanes;
            const double m = std::min<double>(e.instr.active_lanes, v);
            ++cs_.n_vfp;
            cs_.vfp_lane_ops += a * m;
            cs_.vfp_nonfma_loss += (2.0 - a) * m;
            cs_.vfp_mask_loss += v - m;
            stats_.flops_issued += static_cast<std::uint64_t>(a * m);
            --rs_vfp_correct_;
        }
    }
}

void
OooCore::doIssue()
{
    fu_.beginCycle(now_);
    cs_.issue_blame = BackendBlame::kNone;
    cs_.ready_unissued = false;

    if (rs_counts_valid_ && rs_active_ == 0 && now_ < next_wake_) {
        // Every RS entry is parked with an unexpired bound: none can have
        // become ready (entryReady() on a data-incomplete entry is false
        // with no store conflict), so the walk would only replay blames.
        // The oldest entry is the first nonready one in age order.
        if (!rs_.empty())
            cs_.issue_blame = static_cast<BackendBlame>(rs_.blameAt(0));
        cs_.n_issue = 0;
        cs_.n_issue_wrong = 0;
        cs_.rs_empty_any = rs_.empty();
        cs_.rs_empty_correct = rs_correct_ == 0;
        cs_.nonvfp_on_vpu = fu_.nonVfpOnVpuThisCycle();
        scanVfpWait();
        return;
    }

    unsigned budget = params_.issue_width;
    unsigned n_issue = 0;
    unsigned n_wrong = 0;
    bool found_nonready = false;
    bool walk_complete = true;
    unsigned active = 0;
    Cycle wake = kNeverCycle;

    issued_scratch_.clear();
    const std::vector<unsigned> &ents = rs_.entries();
    const unsigned n_ents = rs_.size();
    const std::uint32_t now_key = rs_.nowKey(now_);
    const std::uint32_t *keys = rs_.keys();
    simd::ReadyScanner scanner(now_key);
    for (unsigned base = 0; base < n_ents && walk_complete;
         base += simd::kScanBlock) {
        // One SIMD pass answers both questions the scalar walk asked per
        // entry: which lanes are due for re-evaluation (bound <= now_),
        // and the wake minimum over the still-parked rest (kNeverKey
        // park sentinels and tail padding are excluded by construction;
        // the horizontal reduce is deferred to wakeKey() below).
        std::uint32_t due = scanner.block(keys + base);
        if (due == 0 && found_nonready)
            continue;  // fully parked block, blame already chosen
        const unsigned lim = std::min(n_ents - base, simd::kScanBlock);
        for (unsigned i = 0; i < lim; ++i) {
            if ((due & (1u << i)) == 0) {
                // Provably blocked: replay the blame cached at park time.
                if (!found_nonready) {
                    found_nonready = true;
                    cs_.issue_blame =
                        static_cast<BackendBlame>(rs_.blameAt(base + i));
                }
                continue;
            }
            const unsigned pos = base + i;
            const unsigned slot = ents[pos];
            InflightInstr &e = rob_.at(slot);
            bool conflict = false;
            if (!entryReady(e, conflict)) {
                if (conflict) {
                    cs_.ready_unissued = true;
                    ++active;
                } else {
                    Cycle lb = 0;
                    stacks::BackendBlame blame = BackendBlame::kDepend;
                    std::uint64_t unissued = kNoSeq;
                    classifyBlocked(e, lb, blame, unissued);
                    if (lb > now_) {
                        rs_.park(pos, lb, static_cast<std::uint8_t>(blame));
                        wake = std::min(wake, lb);
                    } else if (unissued != kNoSeq) {
                        // Blocked on a producer that has not even issued:
                        // park the entry until that producer's issueOne()
                        // re-arms it (blame is kDepend the whole time).
                        ScoreEntry &p = scoreSlot(unissued);
                        if (p.num_waiters < std::size(p.waiters)) {
                            p.waiters[p.num_waiters++] =
                                static_cast<std::uint16_t>(slot);
                            rs_.park(pos, kNeverCycle,
                                     static_cast<std::uint8_t>(blame));
                        } else {
                            ++active;
                        }
                    } else {
                        ++active;
                    }
                    if (!found_nonready) {
                        found_nonready = true;
                        cs_.issue_blame = blame;
                    }
                }
                continue;
            }
            if (budget == 0) {
                cs_.ready_unissued = true;
                walk_complete = false;
                break;
            }
            if (!fu_.canIssue(e.instr.cls)) {
                cs_.ready_unissued = true;
                ++active;
                continue;
            }
            rearmed_waiter_ = false;
            issueOne(slot);
            issued_scratch_.push_back(pos);
            --budget;
            if (e.wrong_path) {
                ++n_wrong;
            } else {
                ++n_issue;
                --rs_correct_;
            }
            if (rearmed_waiter_) {
                // The wakeup may have re-armed a parked entry later in
                // this block (its key just dropped to 0); refresh the
                // due mask so the remaining lanes see it, exactly as the
                // scalar walk read each bound at visit time. Keys of
                // unvisited lanes only ever drop (re-arm), so OR-ing the
                // fresh mask is a recompute for them; no wake minimum is
                // needed because every parked lane already contributed
                // above (and the newly parked current lane at park time).
                due |= simd::dueMask8(keys + base, now_key);
            }
        }
    }
    if (!issued_scratch_.empty()) {
        progress_ = true;
        // Positions were recorded in walk order (ascending), so the
        // compaction needs no per-entry predicate or mark array.
        rs_.removeAtPositions(issued_scratch_);
    }

    // The walk's census is trustworthy only if it covered every entry and
    // no issue re-armed an already-visited waiter mid-walk.
    if (walk_complete && issued_scratch_.empty()) {
        rs_counts_valid_ = true;
        rs_active_ = active;
        next_wake_ = std::min(wake, rs_.keyToCycle(scanner.wakeKey()));
    } else {
        rs_counts_valid_ = false;
    }

    cs_.n_issue = n_issue;
    cs_.n_issue_wrong = n_wrong;
    cs_.rs_empty_any = rs_.empty();
    cs_.rs_empty_correct = rs_correct_ == 0;
    cs_.nonvfp_on_vpu = fu_.nonVfpOnVpuThisCycle();
    scanVfpWait();
}

void
OooCore::scanVfpWait()
{
    // FLOPS stack inputs: is a correct-path VFP uop still waiting, and why?
    // The occupancy counter makes the common no-VFP case free.
    cs_.vfp_in_rs = false;
    cs_.vfp_blame = VfpBlame::kNone;
    if (rs_vfp_correct_ > 0) {
        // The RS tags correct-path VFP entries at insert, so finding the
        // oldest one is a contiguous byte scan — only that single entry's
        // ROB record is ever loaded.
        const std::uint8_t *tags = rs_.tags();
        const unsigned n = rs_.size();
        unsigned pos = 0;
        while (pos < n && tags[pos] == 0)
            ++pos;
        if (pos < n) {
            const InflightInstr &e = rob_.at(rs_.entries()[pos]);
            cs_.vfp_in_rs = true;
            // prod(oldest VFP instr): Table III blames the producer the VFP
            // op is actually waiting for — the latest-completing incomplete
            // one. Memory load -> mem component, anything else -> depend.
            const ScoreEntry *binding = nullptr;
            Cycle binding_done = 0;
            for (unsigned i = 0; i < e.instr.num_srcs; ++i) {
                const ScoreEntry *se =
                    liveIncompleteProducer(e.instr.src[i]);
                if (se == nullptr)
                    continue;
                if (binding == nullptr || se->complete_at >= binding_done) {
                    binding = se;
                    binding_done = se->complete_at;
                }
            }
            cs_.vfp_blame = (binding != nullptr && binding->is_load)
                                ? VfpBlame::kMem
                                : VfpBlame::kDepend;
        }
    }
}

void
OooCore::doDispatch()
{
    unsigned n = 0;
    unsigned n_wrong = 0;
    cs_.backend_full = false;

    while (n + n_wrong < params_.dispatch_width && !fetch_q_.empty()) {
        InflightInstr &front = fetch_q_.front();

        if (front.instr.cls == InstrClass::kYield && !front.wrong_path) {
            if (rob_.empty()) {
                // Retire the marker and deschedule the thread.
                progress_ = true;
                unsched_until_ = now_ + 1 + front.instr.yield_cycles;
                ScoreEntry &se = scoreSlot(front.trace_index);
                se = ScoreEntry{front.trace_index, now_, false, false, 1,
                                true};
                ++stats_.instrs_committed;
                fetch_q_.pop_front();
                --fetch_q_correct_;
            } else {
                // Wait for the pipeline to drain: a backend-bound stall.
                cs_.backend_full = true;
            }
            break;
        }

        if (rob_.full() || rs_.full()) {
            cs_.backend_full = true;
            break;
        }

        front.dispatch_cycle = now_;

        if (front.wrong_path) {
            // Give wrong-path uops shallow dependence chains among
            // themselves so they contend for issue slots realistically.
            if (wp_last_producer_slot_ >= 0 && wp_rng_.chance(0.5)) {
                front.wp_dep_slot = wp_last_producer_slot_;
                front.wp_dep_seq = wp_last_producer_seq_;
            }
        }

        const bool wrong_path = front.wrong_path;
        const bool is_branch = front.instr.isBranch();
        const bool is_vfp = trace::isVfp(front.instr.cls);
        const SeqNum seq = front.seq;
        const std::uint64_t tidx = front.trace_index;
        const bool is_store = front.instr.isStore();
        const Addr addr = front.instr.mem_addr;

        // Move straight from the queue slot into the ROB slot: one copy,
        // no stack intermediate.
        const unsigned slot = rob_.push(std::move(front));
        fetch_q_.pop_front();
        // Fresh entries start with bound 0; the tag marks correct-path
        // VFP uops so scanVfpWait() can find the oldest one without
        // touching the ROB.
        rs_.insert(slot, !wrong_path && is_vfp ? 1 : 0);
        // A fresh entry is unclassified, hence active.
        if (rs_counts_valid_)
            ++rs_active_;

        if (wrong_path) {
            ++n_wrong;
            ++stats_.wrong_path_dispatched;
            wp_last_producer_slot_ = static_cast<int>(slot);
            wp_last_producer_seq_ = seq;
        } else {
            ++n;
            ++rob_correct_;
            ++rs_correct_;
            --fetch_q_correct_;
            if (is_vfp)
                ++rs_vfp_correct_;
            ScoreEntry &se = scoreSlot(tidx);
            se = ScoreEntry{tidx, kNeverCycle,
                            rob_.at(slot).instr.isLoad(), false, 1, false};
            if (is_branch)
                onBranchFetchedAll(seq);
            if (is_store) {
                pending_stores_.push_back(PendingStore{slot, seq, addr / 8});
                ++store_filter_[(addr / 8) & (kStoreFilterSize - 1)];
            }
        }
    }

    if (n + n_wrong > 0)
        progress_ = true;
    cs_.n_dispatch = n;
    cs_.n_dispatch_wrong = n_wrong;
    cs_.fe_has_any = !fetch_q_.empty();
    cs_.fe_has_correct = fetch_q_correct_ > 0;
    cs_.fe_reason = fe_reason_;
}

void
OooCore::fetchWrongPath(unsigned budget)
{
    while (budget-- > 0 && fetch_q_.size() < params_.fetch_queue_size) {
        InflightInstr &inst = fetch_q_.emplace_back();
        inst.wrong_path = true;
        inst.seq = next_seq_++;
        inst.trace_index = kNoSeq;
        inst.fetch_cycle = now_;
        inst.instr.pc = 0xdead0000;
        const double r = wp_rng_.uniform();
        if (r < 0.55) {
            inst.instr.cls = InstrClass::kAlu;
        } else if (r < 0.75) {
            inst.instr.cls = InstrClass::kLoad;
            inst.instr.mem_addr = 0x70000000 + wp_rng_.below(1 << 16);
        } else if (r < 0.85) {
            inst.instr.cls = InstrClass::kAluMul;
        } else {
            inst.instr.cls = InstrClass::kAlu;
        }
    }
}

void
OooCore::fetchCorrectPath(unsigned budget)
{
    fe_reason_ = FrontendReason::kNone;
    while (budget > 0 && fetch_q_.size() < params_.fetch_queue_size) {
        if (decode_busy_ > 0) {
            // The decoder is sequencing a microcoded instruction.
            --decode_busy_;
            fe_reason_ = FrontendReason::kMicrocode;
            return;
        }
        if (now_ < fetch_ready_at_) {
            fe_reason_ = FrontendReason::kIcache;
            return;
        }
        if (!has_pending_) {
            if (trace_done_ || !trace_->next(pending_)) {
                trace_done_ = true;
                fe_reason_ = FrontendReason::kDrain;
                return;
            }
            pending_index_ = next_trace_index_++;
            has_pending_ = true;
            pending_decode_paid_ = false;
        }

        // Instruction cache: one timed access per new line.
        const Addr line = ifetchLine(pending_.pc);
        if (line != last_fetch_line_) {
            const uarch::AccessResult res = mem_.ifetch(pending_.pc, now_);
            last_fetch_line_ = line;
            if (!res.l1_hit) {
                fetch_ready_at_ = res.done;
                fe_reason_ = FrontendReason::kIcache;
                return;
            }
        }

        // Microcoded instructions occupy the decoder for extra cycles.
        if (pending_.decode_cycles > 1 && !pending_decode_paid_) {
            pending_decode_paid_ = true;
            decode_busy_ = pending_.decode_cycles - 1;
            fe_reason_ = FrontendReason::kMicrocode;
            return;
        }

        InflightInstr &inst = fetch_q_.emplace_back();
        inst.instr = pending_;
        inst.seq = next_seq_++;
        inst.trace_index = pending_index_;
        inst.fetch_cycle = now_;
        has_pending_ = false;

        bool mispredicted = false;
        if (pending_.isBranch()) {
            ++stats_.branches;
            const bool correct =
                bp_.predictAndUpdate(pending_.pc, pending_.branch_taken);
            if (!correct) {
                ++stats_.branch_mispredicts;
                inst.mispredicted = true;
                mispredicted = true;
            }
        }

        ++fetch_q_correct_;
        --budget;

        if (mispredicted) {
            // Functional-first: the wrong target is known immediately; the
            // frontend switches to wrong-path fetch until the branch
            // executes.
            wrong_path_mode_ = true;
            fe_reason_ = FrontendReason::kBpred;
            return;
        }
    }
}

void
OooCore::doFetch()
{
    // Snapshot the frontend latches so any mutation below marks the cycle
    // as having made progress (which vetoes skip-ahead). fe_reason_ is
    // part of the snapshot because dispatch publishes it one cycle late:
    // a boundary cycle that flips only the latched reason (e.g. redirect
    // expiry with the trace drained, kBpred -> kDrain) must not be quiet,
    // or skip-ahead would replicate the stale reason across the span.
    const std::size_t fq_before = fetch_q_.size();
    const unsigned decode_before = decode_busy_;
    const bool pending_before = has_pending_;
    const Cycle ready_before = fetch_ready_at_;
    const FrontendReason reason_before = fe_reason_;

    if (now_ < redirect_until_) {
        fe_reason_ = FrontendReason::kBpred;
    } else if (wrong_path_mode_) {
        fe_reason_ = FrontendReason::kBpred;
        fetchWrongPath(params_.fetch_width);
    } else {
        fetchCorrectPath(params_.fetch_width);
    }

    if (fetch_q_.size() != fq_before || decode_busy_ != decode_before ||
        has_pending_ != pending_before || fetch_ready_at_ != ready_before ||
        fe_reason_ != reason_before) {
        progress_ = true;
    }
}

void
OooCore::tickAll(const CycleState &s, Cycle n)
{
    acct_dispatch_.tickRepeat(s, n);
    acct_issue_.tickRepeat(s, n);
    acct_commit_.tickRepeat(s, n);
    flops_.tickRepeat(s, n);
}

void
OooCore::flushPending()
{
    if (pending_run_n_ == 0)
        return;
    tickAll(pending_run_, pending_run_n_);
    pending_run_n_ = 0;
}

void
OooCore::account(Cycle span)
{
    if (!params_.accounting_enabled)
        return;
    const bool idle = (cs_.n_dispatch | cs_.n_dispatch_wrong | cs_.n_issue |
                       cs_.n_issue_wrong | cs_.n_commit | cs_.n_vfp |
                       cs_.nonvfp_on_vpu) == 0;
    // Any cycle with pipeline activity is ticked directly, after the
    // pending run, so the §III-A carry sequence stays exact.
    if (!idle || !params_.batched_accounting) {
        assert(span == 1);  // only idle spans skip, never in the reference
        flushPending();
        tickAll(cs_, 1);
        return;
    }
    // Idle cycles have all-zero counts and VFP sums, so equal idle states
    // differ in nothing the accountants read and fold into one run.
    if (pending_run_n_ != 0 && pending_run_ == cs_) {
        pending_run_n_ += span;
        return;
    }
    flushPending();
    pending_run_ = cs_;
    pending_run_n_ = span;
}

void
OooCore::maybeSkipAhead()
{
    // A cycle that mutated nothing and holds no ready-but-unissued work is
    // provably inert: microarchitectural state next changes only when a
    // writeback completes, an icache refill lands, or a redirect expires.
    // Jump to the earliest such event and account the skipped cycles as
    // repeats of the (identical) idle cycle just added to the pending
    // run. See docs/performance.md for the legality argument.
    if (!skip_allowed_ || progress_ || cs_.ready_unissued)
        return;
    // earliest() is kNeverCycle when the calendar is empty.
    Cycle target = std::min(cycle_horizon_, wb_cal_.earliest());
    // now_ is the next unevaluated cycle: an event landing exactly on it
    // means that cycle is not quiet, so >= (not >) keeps it in the target
    // set and the `target <= now_` check below refuses the jump.
    if (fetch_ready_at_ >= now_)
        target = std::min(target, fetch_ready_at_);
    if (redirect_until_ >= now_)
        target = std::min(target, redirect_until_);
    if (target == kNeverCycle || target <= now_)
        return;
    const Cycle span = target - now_;
    if (params_.accounting_enabled) {
        assert(pending_run_n_ != 0);
        pending_run_n_ += span;
    }
    now_ += span;
}

void
OooCore::stepUnsched()
{
    cs_ = CycleState{};
    cs_.unsched = true;
    Cycle span = 1;
    if (skip_allowed_) {
        const Cycle limit = std::min(unsched_until_, cycle_horizon_);
        if (limit > now_)
            span = limit - now_;
    }
    account(span);
    now_ += span;
}

void
OooCore::cycle()
{
    if (profile_ != nullptr) {
        cycleProfiled();
        return;
    }
    if (now_ < unsched_until_) {
        stepUnsched();
        return;
    }
    cs_ = CycleState{};
    progress_ = false;
    doWriteback();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();
    account();
    ++now_;
    maybeSkipAhead();
}

void
OooCore::cycleProfiled()
{
    using Clock = std::chrono::steady_clock;
    const auto ns = [](Clock::time_point a, Clock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
    };
    ++profile_->cycles;
    if (now_ < unsched_until_) {
        const auto t0 = Clock::now();
        stepUnsched();
        profile_->accounting_ns += ns(t0, Clock::now());
        return;
    }
    cs_ = CycleState{};
    progress_ = false;
    const auto t0 = Clock::now();
    doWriteback();
    const auto t1 = Clock::now();
    doCommit();
    const auto t2 = Clock::now();
    doIssue();
    const auto t3 = Clock::now();
    doDispatch();
    const auto t4 = Clock::now();
    doFetch();
    const auto t5 = Clock::now();
    account();
    ++now_;
    maybeSkipAhead();
    const auto t6 = Clock::now();
    profile_->writeback_ns += ns(t0, t1);
    profile_->commit_ns += ns(t1, t2);
    profile_->issue_ns += ns(t2, t3);
    profile_->dispatch_ns += ns(t3, t4);
    profile_->fetch_ns += ns(t4, t5);
    profile_->accounting_ns += ns(t5, t6);
}

bool
OooCore::done() const
{
    return trace_done_ && !has_pending_ && fetch_q_.empty() &&
           rob_.empty() && now_ >= unsched_until_;
}

bool
OooCore::storeQueueSorted() const
{
    for (std::size_t i = 1; i < pending_stores_.size(); ++i) {
        if (pending_stores_[i - 1].seq >= pending_stores_[i].seq)
            return false;
    }
    return true;
}

void
OooCore::run(Cycle max_cycles)
{
    if (max_cycles != 0)
        cycle_horizon_ = std::min(cycle_horizon_, max_cycles);
    while (!done() && (max_cycles == 0 || now_ < max_cycles))
        cycle();
    stats_.cycles = cycles();
    finalizeAccounting();
}

void
OooCore::resetMeasurement()
{
    const auto width_for = [&](unsigned native) {
        return params_.accounting_native_widths ? native
                                                : params_.effectiveWidth();
    };
    acct_dispatch_ = stacks::CpiAccountant(
        {stacks::Stage::kDispatch, width_for(params_.dispatch_width),
         params_.spec_mode});
    acct_issue_ = stacks::CpiAccountant(
        {stacks::Stage::kIssue, width_for(params_.issue_width),
         params_.spec_mode});
    acct_commit_ = stacks::CpiAccountant(
        {stacks::Stage::kCommit, width_for(params_.commit_width),
         params_.spec_mode});
    flops_ = stacks::FlopsAccountant(
        {params_.fu.vpu_units, params_.flops_vec_lanes});
    pending_run_n_ = 0;  // warmup cycles never reach the fresh accountants
    stats_ = CoreStats{};
    measure_start_cycle_ = now_;
    accounting_finalized_ = false;
}

void
OooCore::finalizeAccounting()
{
    if (accounting_finalized_ || !params_.accounting_enabled)
        return;
    flushPending();
    acct_dispatch_.finalize();
    acct_issue_.finalize();
    acct_commit_.finalize();
    if (params_.spec_mode == stacks::SpeculationMode::kSimple) {
        const double commit_base =
            acct_commit_.cycles()[stacks::CpiComponent::kBase];
        acct_dispatch_.applySimpleFixup(commit_base);
        acct_issue_.applySimpleFixup(commit_base);
    }
    accounting_finalized_ = true;
}

}  // namespace stackscope::core
