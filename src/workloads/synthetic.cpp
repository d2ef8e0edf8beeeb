#include "workloads/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace parastack::workloads {

using simmpi::Action;

SyntheticProgram::SyntheticProgram(
    std::shared_ptr<const BenchmarkProfile> profile, simmpi::Rank rank,
    int nranks, util::Rng rng)
    : profile_(std::move(profile)), rank_(rank), nranks_(nranks), rng_(rng) {
  PS_CHECK(profile_ != nullptr, "null profile");
  PS_CHECK(!profile_->phases.empty(), "profile needs phases");
  const double ratio = static_cast<double>(profile_->reference_ranks) /
                       static_cast<double>(nranks_);
  compute_factor_ = std::pow(ratio, profile_->compute_scaling_exp);
  bytes_factor_ = std::pow(ratio, profile_->bytes_scaling_exp);
  // Capped: running far below the reference scale would otherwise inflate
  // per-pair alltoall payloads quadratically into absurd messages.
  alltoall_factor_ =
      std::min(std::pow(ratio, profile_->alltoall_scaling_exp), 8.0);
  pipeline_stride_ = std::max(1, nranks_ / profile_->reference_ranks);
}

sim::Time SyntheticProgram::scaled_compute(const Phase& phase) const {
  double mean = static_cast<double>(phase.compute_mean) * compute_factor_;
  if (rank_ < profile_->straggler_count) mean *= profile_->straggler_factor;
  if (phase.decays) {
    // Shrinking trailing matrix. Floored: per-iteration work never quite
    // collapses (blocking keeps late panels non-trivial), which also keeps
    // the S_crout distribution roughly stationary across the run.
    const double remaining =
        1.0 - static_cast<double>(iter_) /
                  static_cast<double>(profile_->iterations);
    mean *= std::max(remaining * remaining, 0.2);
  }
  return static_cast<sim::Time>(mean);
}

std::size_t SyntheticProgram::scaled_bytes(const Phase& phase) const {
  const double factor = phase.comm == CommPattern::kAlltoall
                            ? alltoall_factor_
                            : bytes_factor_;
  const double scaled = static_cast<double>(phase.bytes) * factor;
  return std::max<std::size_t>(static_cast<std::size_t>(scaled), 8);
}

simmpi::Rank SyntheticProgram::neighbor(int index) const {
  // 1D ring neighbors first; a 2D profile adds +/- sqrt(P) partners.
  const auto p = nranks_;
  const auto stride = std::max(
      1, static_cast<int>(std::lround(std::sqrt(static_cast<double>(p)))));
  switch (index) {
    case 0: return (rank_ + 1) % p;
    case 1: return (rank_ - 1 + p) % p;
    case 2: return (rank_ + stride) % p;
    case 3: return (rank_ - stride + p) % p;
    default: PS_UNREACHABLE("halo supports at most 4 neighbors");
  }
}

void SyntheticProgram::enqueue_halo(const Phase& phase,
                                    Action::Kind wait_kind) {
  const std::size_t bytes = scaled_bytes(phase);
  const int tag = static_cast<int>(&phase - profile_->phases.data()) + 100;
  const int neighbors = std::min(phase.halo_neighbors, 4);
  if (wait_kind == Action::Kind::kSendrecv) {
    // Shift-style blocking exchange (send +direction, receive -direction,
    // then the reverse), the deadlock-free schedule real halo codes use.
    // Neighbor indices come in +/- pairs: (0,1) on the ring, (2,3) at
    // +/- stride.
    for (int pair = 0; pair + 1 < neighbors; pair += 2) {
      queue_.push_back(Action::sendrecv_shift(neighbor(pair),
                                              neighbor(pair + 1), tag, bytes));
      queue_.push_back(Action::sendrecv_shift(neighbor(pair + 1),
                                              neighbor(pair), tag, bytes));
    }
    return;
  }
  for (int i = 0; i < neighbors; ++i) {
    queue_.push_back(Action::irecv(neighbor(i), tag, bytes));
  }
  for (int i = 0; i < neighbors; ++i) {
    queue_.push_back(Action::isend(neighbor(i), tag, bytes));
  }
  if (wait_kind == Action::Kind::kWaitAll) {
    queue_.push_back(Action::wait_all());
  } else {
    queue_.push_back(Action::test_loop(phase.user_func));
  }
}

void SyntheticProgram::enqueue_phase(const Phase& phase) {
  if (phase.compute_mean > 0) {
    queue_.push_back(
        Action::compute(scaled_compute(phase), phase.compute_cv,
                        phase.user_func));
  }
  if (phase.comm == CommPattern::kNone) return;
  if (phase.every > 1 && iter_ % static_cast<std::uint64_t>(phase.every) != 0)
    return;

  const std::size_t bytes = scaled_bytes(phase);
  const simmpi::Rank root =
      phase.rotate_root
          ? static_cast<simmpi::Rank>(iter_ % static_cast<std::uint64_t>(nranks_))
          : 0;
  using Kind = Action::Kind;
  switch (phase.comm) {
    case CommPattern::kHaloBlocking:
      enqueue_halo(phase, Kind::kSendrecv);
      break;
    case CommPattern::kHaloHalfBlocking:
      enqueue_halo(phase, Kind::kWaitAll);
      break;
    case CommPattern::kHaloBusyWait:
      enqueue_halo(phase, Kind::kTestLoop);
      break;
    // Pipeline partners live in *different* phases, so they share fixed
    // tags (forward = 7, backward = 8) instead of the per-phase tag.
    // The dependency distance grows with the job (pipeline_stride_) so the
    // wavefront depth stays bounded — the effect of the real benchmarks'
    // 2D decompositions, whose sweep depth grows like sqrt(P), not P.
    case CommPattern::kPipelineRecv:
      if (rank_ >= pipeline_stride_)
        queue_.push_back(Action::recv(rank_ - pipeline_stride_, 7, bytes));
      break;
    case CommPattern::kPipelineSend:
      if (rank_ + pipeline_stride_ < nranks_)
        queue_.push_back(Action::send(rank_ + pipeline_stride_, 7, bytes));
      break;
    case CommPattern::kPipelineRecvBack:
      if (rank_ + pipeline_stride_ < nranks_)
        queue_.push_back(Action::recv(rank_ + pipeline_stride_, 8, bytes));
      break;
    case CommPattern::kPipelineSendBack:
      if (rank_ >= pipeline_stride_)
        queue_.push_back(Action::send(rank_ - pipeline_stride_, 8, bytes));
      break;
    case CommPattern::kBarrier:
      queue_.push_back(Action::collective(Kind::kBarrier, 0));
      break;
    case CommPattern::kBcast:
      queue_.push_back(Action::collective(Kind::kBcast, bytes, root));
      break;
    case CommPattern::kReduce:
      queue_.push_back(Action::collective(Kind::kReduce, bytes, root));
      break;
    case CommPattern::kAllreduce:
      queue_.push_back(Action::collective(Kind::kAllreduce, bytes));
      break;
    case CommPattern::kGather:
      queue_.push_back(Action::collective(Kind::kGather, bytes, root));
      break;
    case CommPattern::kAllgather:
      queue_.push_back(Action::collective(Kind::kAllgather, bytes));
      break;
    case CommPattern::kAlltoall:
      queue_.push_back(Action::collective(Kind::kAlltoall, bytes));
      break;
    case CommPattern::kNone:
      break;
  }
}

void SyntheticProgram::enqueue_iteration() {
  for (const Phase& phase : profile_->phases) enqueue_phase(phase);
  if (profile_->output_every > 0 && rank_ == 0 &&
      iter_ % static_cast<std::uint64_t>(profile_->output_every) == 0) {
    queue_.push_back(Action::write_output());
  }
  ++iter_;
}

Action SyntheticProgram::next() {
  if (!setup_done_) {
    setup_done_ = true;
    if (profile_->setup_time > 0) {
      return Action::compute(profile_->setup_time, 0.1, "setup_init_arrays");
    }
  }
  while (queue_.empty()) {
    if (iter_ >= profile_->iterations) return Action::finish();
    enqueue_iteration();
  }
  Action action = queue_.front();
  queue_.pop_front();
  return action;
}

simmpi::ProgramFactory make_factory(
    std::shared_ptr<const BenchmarkProfile> profile) {
  return [profile](simmpi::Rank rank, int nranks, util::Rng rng)
             -> std::unique_ptr<simmpi::Program> {
    return std::make_unique<SyntheticProgram>(profile, rank, nranks, rng);
  };
}

}  // namespace parastack::workloads
