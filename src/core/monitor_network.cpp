#include "core/monitor_network.hpp"

#include <algorithm>
#include <bit>

#include "obs/perf.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace parastack::core {

MonitorNetwork::MonitorNetwork(simmpi::World& world,
                               trace::StackInspector& inspector)
    : owned_(std::in_place, world, inspector), sub_(*owned_) {
  init_perf();
}

MonitorNetwork::MonitorNetwork(MonitorSubstrate& substrate) : sub_(substrate) {
  init_perf();
}

void MonitorNetwork::init_perf() {
  if (obs::perf::ProfileRegistry* perf = sub_.engine().perf();
      perf != nullptr) {
    perf_samples_ = perf->counter("monitor.reports_aggregated");
    perf_messages_ = perf->counter("monitor.messages");
    perf_retries_ = perf->counter("monitor.retries");
    perf_failovers_ = perf->counter("monitor.lead_failovers");
    perf_crashes_ = perf->counter("monitor.crashes");
    perf_lost_ = perf->counter("monitor.partials_lost");
  }
}

void MonitorNetwork::init_tree_perf() {
  // Registered only once a tree is armed: interning a counter makes it
  // appear (zero-valued) in every snapshot, and the star-mode metrics
  // document must stay byte-identical to the pre-tree format.
  if (obs::perf::ProfileRegistry* perf = sub_.engine().perf();
      perf != nullptr) {
    perf_subtree_failovers_ = perf->counter("monitor.subtree_failovers");
    perf_root_messages_ = perf->counter("monitor.root_messages");
    perf_tree_hops_ = perf->counter("monitor.tree_hops");
    perf_fan_in_ = perf->high_water("monitor.fan_in");
  }
}

int MonitorNetwork::active_monitors_for(const std::vector<simmpi::Rank>& set) {
  return static_cast<int>(plan_for(set).active_nodes.size());
}

const MonitorNetwork::SamplePlan& MonitorNetwork::plan_for(
    const std::vector<simmpi::Rank>& set) {
  ++plan_clock_;
  SamplePlan* oldest = nullptr;
  for (SamplePlan& plan : plans_) {
    if (plan.set == set) {
      plan.last_used = plan_clock_;
      if (plan.shape_epoch != shape_epoch_) build_plan(plan);
      return plan;
    }
    if (oldest == nullptr || plan.last_used < oldest->last_used) {
      oldest = &plan;
    }
  }
  if (plans_.size() < kMaxPlans) oldest = &plans_.emplace_back();
  oldest->set.assign(set.begin(), set.end());
  oldest->last_used = plan_clock_;
  build_plan(*oldest);
  return *oldest;
}

void MonitorNetwork::build_plan(SamplePlan& plan) {
  plan.shape_epoch = shape_epoch_;
  const std::vector<simmpi::Rank>& set = plan.set;

  // Group by hosting node: sorting (node, position) pairs keeps set order
  // within a node.
  std::vector<std::pair<int, std::size_t>> by_node;
  by_node.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    by_node.emplace_back(sub_.node_of(set[i]), i);
  }
  std::sort(by_node.begin(), by_node.end());
  plan.active_nodes.clear();
  plan.group_offset.clear();
  plan.grouped.clear();
  for (std::size_t i = 0; i < by_node.size(); ++i) {
    if (i == 0 || by_node[i].first != by_node[i - 1].first) {
      plan.active_nodes.push_back(by_node[i].first);
      plan.group_offset.push_back(static_cast<int>(i));
    }
    plan.grouped.push_back(set[by_node[i].second]);
  }
  plan.group_offset.push_back(static_cast<int>(set.size()));

  const std::size_t slots = plan.active_nodes.size();
  plan.slot_carrier.assign(slots, -1);
  plan.carriers.clear();
  plan.level_gathers.clear();
  plan.widest_fan_in = 0;
  plan.deadline_hits = 0;

  if (!topology_.built()) {
    // Star: every live active monitor but the lead sends straight to the
    // lead, in ascending id order; a binomial gather bounds the latency.
    int alive_active = 0;
    std::size_t lead_slot = slots;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const int node = plan.active_nodes[slot];
      if (!monitor_alive(node)) continue;
      ++alive_active;
      if (node == lead_) {
        lead_slot = slot;
        continue;
      }
      plan.slot_carrier[slot] = static_cast<int>(plan.carriers.size());
      plan.carriers.push_back(node);
    }
    if (alive_active > 0) {
      if (lead_slot < slots) {
        plan.slot_carrier[lead_slot] = static_cast<int>(plan.carriers.size());
      }
      plan.carriers.push_back(lead_);
    }
    const int ncarriers = static_cast<int>(plan.carriers.size());
    plan.carrier_parent.assign(plan.carriers.size(), ncarriers - 1);
    plan.carrier_fan_in.assign(plan.carriers.size(), 0);
    if (ncarriers > 0) {
      plan.carrier_parent.back() = -1;
      plan.carrier_fan_in.back() = ncarriers - 1;
    }
    plan.levels = std::bit_width(
        static_cast<unsigned>(std::max(alive_active - 1, 1)));
    plan.gather_latency =
        static_cast<sim::Time>(plan.levels) * sub_.network_latency();
    return;
  }

  // Tree: the carriers are the live active monitors and all their
  // ancestors; their gather ranks, ascending, are the topology's gather
  // order (deepest level first, ascending id within a level).
  std::vector<int> ranks;
  for (const int node : plan.active_nodes) {
    if (!monitor_alive(node)) continue;
    for (int at = node; at >= 0; at = topology_.parent(at)) {
      ranks.push_back(topology_.gather_rank(at));
    }
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const auto carrier_of = [&ranks, this](int node) {
    return static_cast<int>(
        std::lower_bound(ranks.begin(), ranks.end(),
                         topology_.gather_rank(node)) -
        ranks.begin());
  };
  const std::vector<int>& order = topology_.gather_order();
  for (const int rank : ranks) {
    plan.carriers.push_back(order[static_cast<std::size_t>(rank)]);
  }
  plan.carrier_parent.assign(plan.carriers.size(), -1);
  plan.carrier_fan_in.assign(plan.carriers.size(), 0);
  for (std::size_t i = 0; i < plan.carriers.size(); ++i) {
    const int parent = topology_.parent(plan.carriers[i]);
    if (parent < 0) continue;
    const int p = carrier_of(parent);
    plan.carrier_parent[i] = p;
    ++plan.carrier_fan_in[static_cast<std::size_t>(p)];
  }
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const int node = plan.active_nodes[slot];
    if (monitor_alive(node)) plan.slot_carrier[slot] = carrier_of(node);
  }
  plan.levels =
      plan.carriers.empty() ? 0 : topology_.level(plan.carriers.front());

  // One local round even when everything sits on the root's node — the
  // star charges the same floor (bit_width(1) rounds).
  plan.gather_latency = sub_.network_latency();
  if (plan.carriers.size() <= 1 || plan.levels <= 0) return;
  const auto levels = static_cast<std::size_t>(plan.levels);
  std::vector<int> level_max_fan_in(levels, 0);
  std::vector<int> level_senders(levels, 0);
  for (std::size_t i = 0; i < plan.carriers.size(); ++i) {
    const int level = topology_.level(plan.carriers[i]);
    const int fan = plan.carrier_fan_in[i];
    plan.widest_fan_in = std::max(plan.widest_fan_in, fan);
    if (fan > 0 && level < plan.levels) {
      auto& slot = level_max_fan_in[static_cast<std::size_t>(level)];
      slot = std::max(slot, fan);
    }
    if (level > 0) ++level_senders[static_cast<std::size_t>(level - 1)];
  }
  plan.gather_latency = 0;
  for (int receiver = plan.levels - 1; receiver >= 0; --receiver) {
    const auto r = static_cast<std::size_t>(receiver);
    const int fan = std::max(level_max_fan_in[r], 1);
    sim::Time gather =
        static_cast<sim::Time>(std::bit_width(static_cast<unsigned>(fan))) *
        sub_.network_latency();
    // A per-level deadline bounds how long any one gather step may take:
    // a straggling wide level forwards what arrived in time instead of
    // stalling the sample. Latency-only — partial counts still aggregate
    // in full (the model treats the overage as pipelined into the next
    // level), so S_crout is unchanged; only the latency model tightens.
    if (level_deadline_ > 0 && gather > level_deadline_) {
      gather = level_deadline_;
      ++plan.deadline_hits;
    }
    plan.gather_latency += gather;
    plan.level_gathers.push_back(
        {receiver + 1, level_senders[r], level_max_fan_in[r], gather});
  }
}

void MonitorNetwork::charge_level_gathers(const SamplePlan& plan,
                                          sim::Time now) {
  if (plan.level_gathers.empty()) return;
  deadline_hits_ += plan.deadline_hits;
  max_fan_in_ = std::max(max_fan_in_, plan.widest_fan_in);
  PS_PERF_OBSERVE(perf_fan_in_, static_cast<std::uint64_t>(plan.widest_fan_in));
  obs::TelemetrySink* sink = sub_.engine().telemetry();
  if (sink == nullptr) return;
  for (const SamplePlan::LevelGather& gather : plan.level_gathers) {
    obs::MonitorLevelEvent event;
    event.time = now;
    event.level = gather.level;
    event.senders = gather.senders;
    event.max_fan_in = gather.max_fan_in;
    event.latency = gather.latency;
    sink->on_monitor_level(event);
  }
}

bool MonitorNetwork::monitor_alive(int node) const {
  if (!plan_) return true;
  return node >= 0 && node < static_cast<int>(dead_.size()) &&
         !dead_.test(static_cast<std::size_t>(node));
}

void MonitorNetwork::set_topology(const TopologyConfig& config) {
  if (!config.tree()) return;  // fanout <= 0 ("infinite"): flat-star compat
  PS_CHECK(samples_ == 0,
           "set_topology must be called before the first sample");
  PS_CHECK(!plan_.has_value(),
           "set_topology must be called before set_tool_faults");
  topology_.build(sub_.nnodes(), config);
  level_deadline_ = config.level_deadline;
  lead_ = topology_.root();
  ++shape_epoch_;
  init_tree_perf();
}

void MonitorNetwork::set_tool_faults(const faults::ToolFaultPlan& plan) {
  if (!plan.active()) return;  // inactive plan: keep the zero-cost path
  PS_CHECK(samples_ == 0,
           "set_tool_faults must be called before the first sample");
  plan_ = plan;
  tool_rng_ = util::Rng(plan.seed);
  dead_.assign(static_cast<std::size_t>(sub_.nnodes()), false);
  ++shape_epoch_;
  // Resolve random victims now, in plan order, so the crash pattern is a
  // pure function of the plan seed (not of sampling timing). The current
  // root is never a random victim (lead_crash_at targets it explicitly);
  // for the star that is monitor 0, for a tree whatever the placement put
  // at the root.
  crash_schedule_.clear();
  std::vector<int> candidates;  // non-root monitors still unassigned
  for (int node = 0; node < sub_.nnodes(); ++node) {
    if (node != lead_) candidates.push_back(node);
  }
  for (const auto& crash : plan.monitor_crashes) {
    faults::MonitorCrash resolved = crash;
    if (resolved.monitor < 0) {
      if (candidates.empty()) continue;  // no non-root monitor left to kill
      const auto pick = static_cast<std::size_t>(
          tool_rng_.uniform_int(static_cast<std::uint64_t>(candidates.size())));
      resolved.monitor = candidates[pick];
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    PS_CHECK(resolved.monitor < sub_.nnodes(),
             "monitor crash victim out of range");
    crash_schedule_.push_back(resolved);
  }
  std::stable_sort(crash_schedule_.begin(), crash_schedule_.end(),
                   [](const faults::MonitorCrash& a,
                      const faults::MonitorCrash& b) { return a.at < b.at; });
  next_crash_ = 0;
  lead_crash_applied_ = false;
}

void MonitorNetwork::crash_monitor(int node, sim::Time at) {
  if (node < 0 || !monitor_alive(node)) return;  // already dead: no-op
  dead_.set(static_cast<std::size_t>(node));
  ++shape_epoch_;  // every cached sample plan is stale from here on
  ++crashes_;
  PS_PERF_ADD(perf_crashes_, 1);
  const bool was_lead = node == lead_;
  const int alive = sub_.nnodes() - static_cast<int>(dead_.count());
  if (obs::TelemetrySink* sink = sub_.engine().telemetry(); sink != nullptr) {
    obs::MonitorCrashEvent event;
    event.time = at;
    event.monitor = node;
    event.was_lead = was_lead;
    event.alive = alive;
    sink->on_monitor_crash(event);
  }

  if (topology_.built()) {
    // Tree mode: drop the node out of the topology. A dead root fails over
    // to its promoted child (the generalization of lead failover); a dead
    // interior monitor promotes its lowest surviving child, which adopts
    // the siblings — either way the subtree re-registers, charged to the
    // next sample.
    const auto removal = topology_.remove(node);
    if (removal.root_changed) {
      const int old_lead = lead_;
      lead_ = removal.new_root;
      ++failovers_;
      PS_PERF_ADD(perf_failovers_, 1);
      pending_reregistration_ += plan_->reregistration_latency;
      if (obs::TelemetrySink* sink = sub_.engine().telemetry();
          sink != nullptr) {
        obs::LeadFailoverEvent event;
        event.time = at;
        event.from = old_lead;
        event.to = lead_;
        event.reregistration_latency = plan_->reregistration_latency;
        sink->on_lead_failover(event);
      }
    } else if (removal.promoted >= 0) {
      ++subtree_failovers_;
      PS_PERF_ADD(perf_subtree_failovers_, 1);
      pending_reregistration_ += plan_->reregistration_latency;
      if (obs::TelemetrySink* sink = sub_.engine().telemetry();
          sink != nullptr) {
        obs::TreeFailoverEvent event;
        event.time = at;
        event.failed = node;
        event.promoted = removal.promoted;
        event.parent = topology_.parent(removal.promoted);
        event.adopted = removal.adopted;
        event.reregistration_latency = plan_->reregistration_latency;
        sink->on_tree_failover(event);
      }
    }
    return;
  }

  if (!was_lead) return;
  // Star: deterministic failover to the lowest surviving monitor id; every
  // survivor re-registers with it (charged to the next sample).
  const int old_lead = lead_;
  lead_ = -1;
  for (int candidate = 0; candidate < sub_.nnodes(); ++candidate) {
    if (monitor_alive(candidate)) {
      lead_ = candidate;
      break;
    }
  }
  ++failovers_;
  PS_PERF_ADD(perf_failovers_, 1);
  pending_reregistration_ += plan_->reregistration_latency;
  if (obs::TelemetrySink* sink = sub_.engine().telemetry(); sink != nullptr) {
    obs::LeadFailoverEvent event;
    event.time = at;
    event.from = old_lead;
    event.to = lead_;
    event.reregistration_latency = plan_->reregistration_latency;
    sink->on_lead_failover(event);
  }
}

void MonitorNetwork::advance_tool_state(sim::Time now) {
  // Crashes apply lazily, at the first sample past their scheduled instant —
  // so their telemetry is stamped `now` (when the tool observes the death),
  // not the scheduled time. Other sinks may already have logged events
  // between the schedule and this sample; back-dating the crash would break
  // the journal's global time order.
  while (next_crash_ < crash_schedule_.size() &&
         crash_schedule_[next_crash_].at <= now) {
    crash_monitor(crash_schedule_[next_crash_].monitor, now);
    ++next_crash_;
  }
  if (!lead_crash_applied_ && plan_->lead_crash_at.has_value() &&
      *plan_->lead_crash_at <= now) {
    lead_crash_applied_ = true;
    crash_monitor(lead_, now);
  }
}

MonitorNetwork::Measurement MonitorNetwork::measure(
    const std::vector<simmpi::Rank>& set) {
  PS_CHECK(!set.empty(), "cannot measure an empty monitor set");
  return plan_ ? measure_under_faults(set) : measure_healthy(set);
}

MonitorNetwork::Measurement MonitorNetwork::measure_healthy(
    const std::vector<simmpi::Rank>& set) {
  Measurement measurement;
  // Trace in set order: the star and the tree draw the inspector stream
  // alike, which is what makes tree-vs-star (faults off) a byte-exact
  // oracle.
  int out = 0;
  for (const auto rank : set) {
    if (sub_.trace_out_mpi(rank)) ++out;
    ++measurement.ranks_traced;
  }
  measurement.scrout =
      static_cast<double>(out) / static_cast<double>(set.size());

  const SamplePlan& plan = plan_for(set);
  measurement.active_monitors = static_cast<int>(plan.active_nodes.size());
  measurement.levels = plan.levels;
  measurement.aggregation_latency = plan.gather_latency;
  std::uint64_t messages = 0;
  if (topology_.built()) {
    // Every carrier except the root forwards one 8-byte aggregated partial
    // to its parent — one hop per carrier, fan-in bounded by the topology.
    messages = plan.carriers.size() - 1;
    measurement.root_fan_in = plan.carrier_fan_in.back();
    tree_hops_ += messages;
    PS_PERF_ADD(perf_tree_hops_, messages);
    charge_level_gathers(plan, sub_.engine().now());
  } else {
    // Each active monitor (except the lead) sends one 8-byte partial count.
    messages = static_cast<std::uint64_t>(
        std::max(measurement.active_monitors - 1, 0));
    measurement.root_fan_in = static_cast<int>(messages);
    max_fan_in_ = std::max(max_fan_in_, measurement.root_fan_in);
  }
  messages_ += messages;
  bytes_ += messages * 8;
  root_messages_ += static_cast<std::uint64_t>(measurement.root_fan_in);
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_messages_, messages);
  PS_PERF_ADD(perf_root_messages_,
              static_cast<std::uint64_t>(measurement.root_fan_in));
  PS_PERF_ADD(perf_samples_, 1);
  emit_sample_event(measurement, messages, messages * 8);
  return measurement;
}

MonitorNetwork::Measurement MonitorNetwork::measure_under_faults(
    const std::vector<simmpi::Rank>& set) {
  const sim::Time now = sub_.engine().now();
  advance_tool_state(now);
  const SamplePlan& plan = plan_for(set);

  Measurement measurement;
  measurement.coverage = 0.0;
  measurement.active_monitors = static_cast<int>(plan.active_nodes.size());
  measurement.levels = plan.levels;

  std::uint64_t sample_messages = 0;
  int covered = 0;
  int out_covered = 0;

  if (lead_ < 0) {
    // Every monitor is dead: nobody traces, nothing is aggregated.
    measurement.partials_missing = measurement.active_monitors;
    measurement.degraded = true;
    measurement.aggregation_latency =
        sub_.network_latency() + pending_reregistration_;
    pending_reregistration_ = 0;
  } else {
    // Local tracing first, per active node in ascending order (ptrace cost
    // is charged even when the resulting count is later lost in flight;
    // the inspector stream is independent of the hop draws below).
    partials_.assign(plan.carriers.size(), Partial{});
    for (std::size_t slot = 0; slot < plan.active_nodes.size(); ++slot) {
      const int carrier = plan.slot_carrier[slot];
      if (carrier < 0) {
        ++measurement.partials_missing;  // this monitor's partial never comes
        continue;
      }
      int node_out = 0;
      const int begin = plan.group_offset[slot];
      const int end = plan.group_offset[slot + 1];
      for (int i = begin; i < end; ++i) {
        if (sub_.trace_out_mpi(plan.grouped[static_cast<std::size_t>(i)])) {
          ++node_out;
        }
        ++measurement.ranks_traced;
      }
      Partial& local = partials_[static_cast<std::size_t>(carrier)];
      local.monitors = 1;
      local.covered = end - begin;
      local.out = node_out;
    }

    if (plan.carriers.empty()) {
      // Every active monitor is dead (the lead survives elsewhere): the
      // sample is blind but the lead still waited one round.
      measurement.degraded = true;
      measurement.aggregation_latency =
          sub_.network_latency() + pending_reregistration_;
      pending_reregistration_ = 0;
    } else {
      // Hop the partials toward the root in carrier order — for a tree,
      // deepest carriers first, ascending node id within a level. One
      // loss/retry/delay draw sequence per hop, so a lost hop drops the
      // WHOLE subtree partial it was carrying; lost messages are
      // re-requested after `sample_timeout` with exponential backoff.
      for (std::size_t c = 0; c < plan.carriers.size(); ++c) {
        const int parent = plan.carrier_parent[c];
        if (parent < 0) continue;  // the root does not hop
        const Partial& child = partials_[c];
        Partial& up = partials_[static_cast<std::size_t>(parent)];
        ++sample_messages;
        bool delivered = !tool_rng_.bernoulli(plan_->loss_probability);
        int attempts_retried = 0;
        sim::Time hop_penalty = 0;
        while (!delivered && attempts_retried < plan_->max_retries) {
          ++attempts_retried;
          ++sample_messages;
          hop_penalty += plan_->sample_timeout +
                         (plan_->retry_backoff << (attempts_retried - 1));
          delivered = !tool_rng_.bernoulli(plan_->loss_probability);
        }
        if (delivered && plan_->delay_mean > 0) {
          hop_penalty += static_cast<sim::Time>(
              tool_rng_.exponential(static_cast<double>(plan_->delay_mean)));
        }
        if (!delivered) {
          hop_penalty += plan_->sample_timeout;  // the receiver's final wait
          const auto dropped = static_cast<std::uint64_t>(child.monitors);
          measurement.partials_missing += child.monitors;
          lost_ += dropped;
          PS_PERF_ADD(perf_lost_, dropped);
        } else {
          up.monitors += child.monitors;
          up.covered += child.covered;
          up.out += child.out;
        }
        up.penalty = std::max(up.penalty, child.penalty + hop_penalty);
        measurement.retries += attempts_retried;
        retries_total_ += static_cast<std::uint64_t>(attempts_retried);
        PS_PERF_ADD(perf_retries_,
                    static_cast<std::uint64_t>(attempts_retried));
        if (attempts_retried > 0) {
          if (obs::TelemetrySink* sink = sub_.engine().telemetry();
              sink != nullptr) {
            obs::SampleTimeoutEvent event;
            event.time = now;
            event.monitor = plan.carriers[c];
            event.retries = attempts_retried;
            event.recovered = delivered;
            sink->on_sample_timeout(event);
          }
        }
      }

      const Partial& root = partials_.back();
      covered = root.covered;
      out_covered = root.out;
      measurement.coverage =
          static_cast<double>(covered) / static_cast<double>(set.size());
      measurement.degraded = covered == 0;
      measurement.root_fan_in = plan.carrier_fan_in.back();
      charge_level_gathers(plan, now);
      measurement.aggregation_latency =
          plan.gather_latency + root.penalty + pending_reregistration_;
      pending_reregistration_ = 0;
    }
  }

  measurement.scrout =
      covered > 0 ? static_cast<double>(out_covered) /
                        static_cast<double>(covered)
                  : 0.0;
  // The star's lead hears every message itself; a tree's root hears only
  // its children's hops.
  const auto root_heard =
      topology_.built() ? static_cast<std::uint64_t>(measurement.root_fan_in)
                        : sample_messages;
  if (topology_.built()) {
    tree_hops_ += sample_messages;
    PS_PERF_ADD(perf_tree_hops_, sample_messages);
  }
  root_messages_ += root_heard;
  max_fan_in_ = std::max(max_fan_in_, measurement.root_fan_in);
  messages_ += sample_messages;
  bytes_ += sample_messages * 8;
  traced_ += static_cast<std::uint64_t>(measurement.ranks_traced);
  ++samples_;
  PS_PERF_ADD(perf_messages_, sample_messages);
  PS_PERF_ADD(perf_root_messages_, root_heard);
  PS_PERF_ADD(perf_samples_, 1);
  emit_sample_event(measurement, sample_messages, sample_messages * 8);
  return measurement;
}

void MonitorNetwork::emit_sample_event(const Measurement& measurement,
                                       std::uint64_t messages,
                                       std::uint64_t bytes) {
  obs::TelemetrySink* sink = sub_.engine().telemetry();
  if (sink == nullptr) return;
  obs::MonitorSampleEvent event;
  event.time = sub_.engine().now();
  event.ranks_traced = measurement.ranks_traced;
  event.active_monitors = measurement.active_monitors;
  event.monitor_count = monitor_count();
  event.messages = messages;
  event.bytes = bytes;
  event.aggregation_latency = measurement.aggregation_latency;
  event.tree = topology_.built();
  event.levels = measurement.levels;
  event.root_fan_in = measurement.root_fan_in;
  event.partials_missing = measurement.partials_missing;
  event.retries = measurement.retries;
  event.coverage = measurement.coverage;
  event.degraded = measurement.degraded;
  sink->on_monitor_sample(event);
}

}  // namespace parastack::core
