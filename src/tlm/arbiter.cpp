#include "tlm/arbiter.hpp"

#include <bit>
#include <limits>

#include "assertions/assert.hpp"

namespace ahbp::tlm {

namespace {

/// Stage 1 — the base set: every requesting candidate that is not blocked
/// by a read-after-write hazard.  If the eager set is empty but the write
/// buffer holds data, the buffer becomes the (sole) opportunistic
/// candidate, which is how it drains through bus idle gaps.
CandidateMask request_filter(const ArbContext& ctx) {
  CandidateMask m = 0;
  for (unsigned i = 0; i < ctx.candidates.size(); ++i) {
    const ArbCandidate& c = ctx.candidates[i];
    if (c.requesting && !c.blocked_by_hazard) {
      m |= 1U << i;
    }
  }
  return m;
}

/// Stage 2 — locked-transfer ownership: a master holding HLOCK keeps the
/// bus until its locked transaction completes.
CandidateMask lock_filter(const ArbContext& ctx, CandidateMask in) {
  if (ctx.lock_owner == ahb::kNoMaster) {
    return in;
  }
  const CandidateMask owner_bit = 1U << ctx.lock_owner;
  return (in & owner_bit) ? owner_bit : in;
}

/// Stage 3 — QoS urgency: real-time masters whose slack (objective minus
/// wait so far) fell below the configured threshold pre-empt everything;
/// among several urgent masters the smallest slack wins.  A full/hazard
/// write buffer is treated as urgent too, but RT emergencies outrank it.
CandidateMask urgency_filter(const ArbContext& ctx, CandidateMask in) {
  CandidateMask urgent = 0;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (unsigned i = 0; i < ctx.masters; ++i) {
    if (!((in >> i) & 1U)) {
      continue;
    }
    const auto& cfg = ctx.qos->config(static_cast<ahb::MasterId>(i));
    if (cfg.cls != ahb::MasterClass::kRealTime) {
      continue;
    }
    const std::int64_t slack =
        ctx.qos->rt_slack(static_cast<ahb::MasterId>(i), ctx.now);
    if (slack >= static_cast<std::int64_t>(ctx.cfg->urgency_slack_threshold)) {
      continue;
    }
    if (slack < best) {
      best = slack;
      urgent = 1U << i;
    } else if (slack == best) {
      urgent |= 1U << i;
    }
  }
  if (urgent != 0) {
    return urgent;
  }
  if (ctx.wbuf_urgent && (in & ctx.wbuf_bit())) {
    return ctx.wbuf_bit();
  }
  return in;
}

/// Stage 4 — bandwidth budgets: masters that still hold budget tokens for
/// the current epoch outrank those that exhausted theirs.  The write
/// buffer has no budget and is treated as always in-budget (its bandwidth
/// is accounted to the masters whose writes it carries).
CandidateMask qos_budget_filter(const ArbContext& ctx, CandidateMask in) {
  CandidateMask out = 0;
  for (unsigned i = 0; i < ctx.candidates.size(); ++i) {
    if (!((in >> i) & 1U)) {
      continue;
    }
    if (i >= ctx.masters) {
      out |= 1U << i;  // write buffer: always in budget
      continue;
    }
    const auto& st = ctx.qos->state(static_cast<ahb::MasterId>(i));
    const auto& cfg = ctx.qos->config(static_cast<ahb::MasterId>(i));
    // objective 0 = best effort (no budget tracking for this master)
    if (cfg.objective == 0 || st.budget > 0) {
      out |= 1U << i;
    }
  }
  return out != 0 ? out : in;
}

/// Stage 5 — bank awareness (BI): prefer candidates whose target bank is
/// most ready (open matching row beats idle beats conflicting), enabling
/// the DDR bank interleaving the BI exists for.
CandidateMask bank_filter(const ArbContext& ctx, CandidateMask in) {
  if (!ctx.cfg->bi_hints_enabled) {
    return in;
  }
  ddr::BankAffinity best = ddr::BankAffinity::kConflict;
  for (unsigned i = 0; i < ctx.candidates.size(); ++i) {
    if (((in >> i) & 1U) && ctx.candidates[i].affinity > best) {
      best = ctx.candidates[i].affinity;
    }
  }
  CandidateMask out = 0;
  for (unsigned i = 0; i < ctx.candidates.size(); ++i) {
    if (((in >> i) & 1U) && ctx.candidates[i].affinity == best) {
      out |= 1U << i;
    }
  }
  return out != 0 ? out : in;
}

/// Stage 6 — round-robin fairness: the first candidate strictly after the
/// last grant in circular index order.
CandidateMask round_robin_filter(const ArbContext& ctx, CandidateMask in) {
  if (in == 0) {
    return in;
  }
  const unsigned n = static_cast<unsigned>(ctx.candidates.size());
  const unsigned start =
      ctx.last_grant == ahb::kNoMaster ? 0 : (ctx.last_grant + 1U) % n;
  for (unsigned k = 0; k < n; ++k) {
    const unsigned i = (start + k) % n;
    if ((in >> i) & 1U) {
      return 1U << i;
    }
  }
  return in;
}

/// Stage 7 — fixed priority: lowest index wins.  Guarantees a unique
/// winner whatever subset of the other stages is enabled.
CandidateMask priority_filter(const ArbContext&, CandidateMask in) {
  return in & (~in + 1);  // lowest set bit (0 stays 0)
}

}  // namespace

std::optional<ahb::MasterId> FilterPipeline::arbitrate(
    const ArbContext& ctx) const {
  AHBP_ASSERT(ctx.cfg != nullptr && ctx.qos != nullptr);
  AHBP_ASSERT(ctx.candidates.size() == ctx.masters + 1);

  // The request stage always runs (it defines the base set); the others
  // honour the §3.7 per-filter enable mask.
  CandidateMask mask = request_filter(ctx);
  if (mask == 0) {
    return std::nullopt;  // nobody requesting
  }
  // Order encodes policy: QoS guarantees (urgency, budget) outrank the
  // throughput optimization (bank affinity), which outranks fairness
  // tie-breaks.  Budget-before-bank also prevents an open-row feedback
  // loop from starving a master for longer than one budget epoch.
  using Stage = CandidateMask (*)(const ArbContext&, CandidateMask);
  const auto run = [&](ahb::FilterBit bit, Stage stage) {
    if (ahb::filter_enabled(ctx.cfg->filter_mask, bit)) {
      mask = stage(ctx, mask);
    }
  };
  run(ahb::FilterBit::kLock, lock_filter);
  run(ahb::FilterBit::kUrgency, urgency_filter);
  run(ahb::FilterBit::kQosBudget, qos_budget_filter);
  run(ahb::FilterBit::kBank, bank_filter);
  run(ahb::FilterBit::kRoundRobin, round_robin_filter);
  run(ahb::FilterBit::kPriority, priority_filter);
  // The priority stage may be disabled in ablations; fall back to its rule
  // so the arbiter still returns a unique winner.
  if (std::popcount(mask) > 1) {
    mask &= (~mask + 1);
  }
  AHBP_ASSERT_MSG(std::popcount(mask) == 1, "arbitration must pick one");
  return static_cast<ahb::MasterId>(std::countr_zero(mask));
}

Arbiter::Arbiter(const ahb::BusConfig& cfg, ahb::QosRegisterFile& qos)
    : cfg_(cfg), qos_(qos) {}

void Arbiter::on_request(ahb::MasterId m, sim::Cycle now) {
  auto& st = qos_.state(m);
  AHBP_ASSERT_MSG(!st.requesting, "master re-requested while pending");
  st.requesting = true;
  st.request_since = now;
}

void Arbiter::tick(sim::Cycle now) {
  if (now >= last_epoch_ + qos_.epoch()) {
    qos_.refill_budgets();
    last_epoch_ = now;
  }
}

void Arbiter::skip_idle(sim::Cycle from, sim::Cycle to) {
  // Replay tick(from), tick(from+1), ..., tick(to-1) in closed form: each
  // refill fires at the first cycle >= last_epoch_ + epoch and resets the
  // clock to that cycle (epoch >= 1 is guaranteed by QosRegisterFile).
  const sim::Cycle epoch = qos_.epoch();
  sim::Cycle t = last_epoch_ + epoch;
  if (t < from) {
    t = from;
  }
  while (t < to) {
    qos_.refill_budgets();
    last_epoch_ = t;
    t = last_epoch_ + epoch;
  }
}

std::optional<Arbiter::Grant> Arbiter::arbitrate(ArbContext& ctx) {
  ctx.last_grant = last_grant_;
  const auto winner = pipeline_.arbitrate(ctx);
  if (!winner) {
    return std::nullopt;
  }
  Grant g;
  g.master = *winner;
  g.is_wbuf = *winner >= ctx.masters;
  g.handover = last_grant_ != ahb::kNoMaster && last_grant_ != *winner;
  last_grant_ = *winner;
  ++grants_;
  if (!g.is_wbuf) {
    auto& st = qos_.state(g.master);
    AHBP_ASSERT_MSG(st.requesting, "grant to a non-requesting master");
    g.waited = ctx.now - st.request_since;
    st.requesting = false;
    st.budget -=
        static_cast<std::int64_t>(ctx.candidates[g.master].beats);
    ++st.grants;
  }
  return g;
}

void Arbiter::save_state(state::StateWriter& w) const {
  w.begin("arbiter");
  w.put_u8(last_grant_);
  w.put_u64(grants_);
  w.put_u64(last_epoch_);
  w.end();
}

void Arbiter::restore_state(state::StateReader& r) {
  r.enter("arbiter");
  last_grant_ = r.get_u8();
  grants_ = r.get_u64();
  last_epoch_ = r.get_u64();
  r.leave();
}

}  // namespace ahbp::tlm
