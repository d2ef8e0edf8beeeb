#include "faults/injector.hpp"

#include <utility>

#include "obs/telemetry.hpp"
#include "simmpi/action.hpp"
#include "util/check.hpp"

namespace parastack::faults {

using simmpi::Action;
using simmpi::MpiFunc;

std::string_view fault_type_name(FaultType type) noexcept {
  switch (type) {
    case FaultType::kNone: return "none";
    case FaultType::kComputeHang: return "compute-hang";
    case FaultType::kCommDeadlock: return "comm-deadlock";
    case FaultType::kTransientSlowdown: return "transient-slowdown";
    case FaultType::kNodeFreeze: return "node-freeze";
    case FaultType::kMonitorCrash: return "monitor-crash";
    case FaultType::kLeadCrash: return "lead-crash";
  }
  return "?";
}

namespace {

/// Map a communication action to the MPI function the victim appears
/// stuck in. Returns kFinalize as a "not eligible" sentinel.
MpiFunc deadlock_func_for(const Action& action) {
  using Kind = Action::Kind;
  switch (action.kind) {
    case Kind::kSend: return MpiFunc::kSend;
    case Kind::kRecv: return MpiFunc::kRecv;
    case Kind::kSendrecv: return MpiFunc::kSendrecv;
    case Kind::kWaitAll: return MpiFunc::kWaitall;
    case Kind::kBarrier: return MpiFunc::kBarrier;
    case Kind::kBcast: return MpiFunc::kBcast;
    case Kind::kReduce: return MpiFunc::kReduce;
    case Kind::kAllreduce: return MpiFunc::kAllreduce;
    case Kind::kGather: return MpiFunc::kGather;
    case Kind::kAllgather: return MpiFunc::kAllgather;
    case Kind::kAlltoall: return MpiFunc::kAlltoall;
    default: return MpiFunc::kFinalize;
  }
}

/// Wraps the victim's program: once the clock passes the trigger, the next
/// eligible action is replaced with a hang.
class HangingProgram : public simmpi::Program {
 public:
  HangingProgram(std::unique_ptr<simmpi::Program> inner, FaultType type,
                 sim::Time trigger,
                 std::shared_ptr<std::function<sim::Time()>> clock,
                 std::shared_ptr<std::function<void(sim::Time)>> notify,
                 std::shared_ptr<FaultRecord> record)
      : inner_(std::move(inner)), type_(type), trigger_(trigger),
        clock_(std::move(clock)), notify_(std::move(notify)),
        record_(std::move(record)) {}

  Action next() override {
    Action action = inner_->next();
    if (record_->activated() || !*clock_) return action;
    const sim::Time now = (*clock_)();
    if (now < trigger_) return action;
    if (type_ == FaultType::kComputeHang) {
      if (action.kind != Action::Kind::kCompute) return action;
      activate(now);
      return Action::hang_compute(action.user_func);
    }
    // Communication deadlock: wait for the next blocking comm action.
    const MpiFunc func = deadlock_func_for(action);
    if (func == MpiFunc::kFinalize) return action;
    activate(now);
    return Action::hang_in_mpi(func);
  }

 private:
  void activate(sim::Time now) {
    record_->activated_at = now;
    if (*notify_) (*notify_)(now);
  }

  std::unique_ptr<simmpi::Program> inner_;
  FaultType type_;
  sim::Time trigger_;
  std::shared_ptr<std::function<sim::Time()>> clock_;
  std::shared_ptr<std::function<void(sim::Time)>> notify_;
  std::shared_ptr<FaultRecord> record_;
};

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), record_(std::make_shared<FaultRecord>()),
      clock_(std::make_shared<std::function<sim::Time()>>()),
      notify_(std::make_shared<std::function<void(sim::Time)>>()) {
  record_->type = plan_.type;
  record_->victim = plan_.victim;
  record_->planned_trigger = plan_.trigger_time;
}

simmpi::ProgramFactory FaultInjector::wrap(simmpi::ProgramFactory inner) {
  if (plan_.type != FaultType::kComputeHang &&
      plan_.type != FaultType::kCommDeadlock) {
    return inner;
  }
  PS_CHECK(plan_.victim >= 0, "program fault needs a victim rank");
  wrapped_ = true;
  auto plan = plan_;
  auto record = record_;
  auto clock = clock_;
  auto notify = notify_;
  return [inner = std::move(inner), plan, record, clock, notify](
             simmpi::Rank rank, int nranks,
             util::Rng rng) -> std::unique_ptr<simmpi::Program> {
    auto program = inner(rank, nranks, rng);
    if (rank != plan.victim) return program;
    return std::make_unique<HangingProgram>(std::move(program), plan.type,
                                            plan.trigger_time, clock, notify,
                                            record);
  };
}

void FaultInjector::arm(simmpi::World& world) {
  PS_CHECK(!armed_,
           "FaultInjector::arm called twice: re-arming would double-schedule "
           "node faults and mis-record activation");
  if (plan_.type == FaultType::kComputeHang ||
      plan_.type == FaultType::kCommDeadlock) {
    PS_CHECK(wrapped_,
             "FaultInjector::arm: program-driven fault but wrap() was never "
             "called — build the World from the wrapped factory first");
  }
  armed_ = true;
  *clock_ = [engine = &world.engine()] { return engine->now(); };
  *notify_ = [engine = &world.engine(), plan = plan_](sim::Time now) {
    if (obs::TelemetrySink* sink = engine->telemetry(); sink != nullptr) {
      obs::FaultEvent event;
      event.time = now;
      event.type = fault_type_name(plan.type);
      event.victim = plan.victim;
      sink->on_fault(event);
    }
  };
  switch (plan_.type) {
    case FaultType::kNone:
    case FaultType::kComputeHang:
    case FaultType::kCommDeadlock:
      return;  // program-driven (or nothing); clock binding is enough
    case FaultType::kMonitorCrash:
    case FaultType::kLeadCrash:
      // Tool-side faults: MonitorNetwork applies them from its
      // ToolFaultPlan; the application world has nothing to arm.
      return;
    case FaultType::kTransientSlowdown: {
      PS_CHECK(plan_.victim >= 0, "slowdown needs a victim rank");
      auto record = record_;
      auto plan = plan_;
      auto notify = notify_;
      auto* w = &world;
      world.engine().schedule_at(plan.trigger_time, [w, plan, record, notify] {
        record->activated_at = w->engine().now();
        if (*notify) (*notify)(record->activated_at);
        const int node = w->node_of(plan.victim);
        for (const simmpi::Rank r : w->ranks_on_node(node)) {
          w->rank(r).set_compute_factor(plan.slowdown_factor);
        }
        w->engine().schedule_after(plan.slowdown_duration, [w, plan] {
          const int node2 = w->node_of(plan.victim);
          for (const simmpi::Rank r : w->ranks_on_node(node2)) {
            w->rank(r).set_compute_factor(1.0);
          }
        });
      });
      return;
    }
    case FaultType::kNodeFreeze: {
      PS_CHECK(plan_.victim >= 0, "freeze needs a victim rank");
      auto record = record_;
      auto plan = plan_;
      auto notify = notify_;
      auto* w = &world;
      world.engine().schedule_at(plan.trigger_time, [w, plan, record, notify] {
        record->activated_at = w->engine().now();
        if (*notify) (*notify)(record->activated_at);
        const int node = w->node_of(plan.victim);
        for (const simmpi::Rank r : w->ranks_on_node(node)) {
          w->rank(r).freeze();
        }
      });
      return;
    }
  }
}

}  // namespace parastack::faults
