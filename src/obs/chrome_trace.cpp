#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace parastack::obs {

namespace {

// Track layout: pid 0 = the simulated job (one tid per recorded rank),
// pid 1 = the tool (tid 0 detector, tid 1 monitor network).
constexpr int kJobPid = 0;
constexpr int kToolPid = 1;
constexpr int kDetectorTid = 0;
constexpr int kMonitorTid = 1;

void append_ts(std::string& out, sim::Time t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t) / 1e3);
  out += buf;
}

const char* span_category(RankSpanEvent::Kind kind) {
  switch (kind) {
    case RankSpanEvent::Kind::kCompute: return "compute";
    case RankSpanEvent::Kind::kBlockingMpi: return "mpi";
    case RankSpanEvent::Kind::kBusyWait: return "busy-wait";
    case RankSpanEvent::Kind::kIo: return "io";
  }
  return "?";
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(Options options) : options_(options) {}

std::string& ChromeTraceWriter::begin_event() {
  events_.emplace_back();
  std::string& ev = events_.back();
  ev.reserve(128);
  return ev;
}

void ChromeTraceWriter::instant(sim::Time t, const char* name, bool global) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"";
  ev += global ? 'g' : 't';
  ev += "\",\"pid\":1,\"tid\":0,\"name\":\"";
  ev += name;
  ev += "\",\"ts\":";
  append_ts(ev, t);
  ev += '}';
}

void ChromeTraceWriter::counter(sim::Time t, const char* name, double value) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"";
  ev += name;
  ev += "\",\"ts\":";
  append_ts(ev, t);
  ev += ",\"args\":{\"value\":";
  json_number(ev, value);
  ev += "}}";
}

void ChromeTraceWriter::on_run_start(const RunStartEvent& e) {
  auto metadata = [this](int pid, int tid, const char* what,
                         const std::string& name) {
    std::string& ev = begin_event();
    char head[96];
    std::snprintf(head, sizeof head,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                  "\"args\":{\"name\":",
                  pid, tid, what);
    ev += head;
    json_string(ev, name);
    ev += "}}";
  };
  metadata(kJobPid, 0, "process_name",
           std::string(e.bench) + "(" + std::string(e.input) + ") x " +
               std::to_string(e.nranks));
  metadata(kToolPid, 0, "process_name", "parastack");
  metadata(kToolPid, kDetectorTid, "thread_name", "detector");
  metadata(kToolPid, kMonitorTid, "thread_name", "monitor-network");
  const int shown = std::min(options_.max_ranks, e.nranks);
  for (int r = 0; r < shown; ++r) {
    metadata(kJobPid, r, "thread_name", "rank " + std::to_string(r));
  }
}

void ChromeTraceWriter::on_rank_span(const RankSpanEvent& e) {
  if (e.rank < 0 || e.rank >= options_.max_ranks) return;
  std::string& ev = begin_event();
  ev += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
  ev += std::to_string(e.rank);
  ev += ",\"cat\":\"";
  ev += span_category(e.kind);
  ev += "\",\"name\":";
  json_string(ev, e.func);
  ev += ",\"ts\":";
  append_ts(ev, e.begin);
  ev += ",\"dur\":";
  append_ts(ev, std::max<sim::Time>(e.end - e.begin, 1));
  ev += '}';
}

void ChromeTraceWriter::on_detection_span(const DetectionSpanEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"detection-latency\","
        "\"name\":";
  json_string(ev, e.span);
  ev += ",\"ts\":";
  append_ts(ev, e.begin);
  ev += ",\"dur\":";
  append_ts(ev, std::max<sim::Time>(e.end - e.begin, 1));
  ev += '}';
}

void ChromeTraceWriter::on_sample(const SampleEvent& e) {
  counter(e.time, "S_crout", e.scrout);
  counter(e.time, "streak", static_cast<double>(e.streak));
  instant(e.time, e.suspicious ? "sample (suspicious)" : "sample", false);
}

void ChromeTraceWriter::on_filter(const FilterEvent& e) {
  switch (e.stage) {
    case FilterEvent::Stage::kEnter:
      verification_started_ = e.time;
      return;
    case FilterEvent::Stage::kRetry:
      return;
    case FilterEvent::Stage::kSlowdown:
    case FilterEvent::Stage::kHangConfirmed: {
      if (verification_started_ < 0) return;
      std::string& ev = begin_event();
      ev += "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"verification\","
            "\"name\":\"";
      ev += e.stage == FilterEvent::Stage::kSlowdown ? "verify: slowdown"
                                                     : "verify: hang";
      ev += "\",\"ts\":";
      append_ts(ev, verification_started_);
      ev += ",\"dur\":";
      append_ts(ev, std::max<sim::Time>(e.time - verification_started_, 1));
      ev += '}';
      verification_started_ = -1;
      return;
    }
  }
}

void ChromeTraceWriter::on_sweep(const SweepEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"name\":\"sweep: ";
  ev.append(e.purpose.data(), e.purpose.size());
  ev += "\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::on_hang(const HangEvent& e) {
  instant(e.time, e.computation_error ? "HANG (computation)"
                                      : "HANG (communication)",
          true);
}

void ChromeTraceWriter::on_slowdown(const SlowdownEvent& e) {
  instant(e.time, "transient slowdown absorbed", true);
}

void ChromeTraceWriter::on_monitor_sample(const MonitorSampleEvent& e) {
  tool_bytes_total_ += e.bytes;
  std::string& ev = begin_event();
  ev += "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"tool_bytes\",\"ts\":";
  append_ts(ev, e.time);
  ev += ",\"args\":{\"value\":";
  ev += std::to_string(tool_bytes_total_);
  ev += "}}";
}

void ChromeTraceWriter::on_monitor_level(const MonitorLevelEvent& e) {
  // One complete event per tree level on the monitor-network track: the
  // per-level gather latency becomes a visible slice, widest-fan-in level
  // dominating the sample's aggregation span.
  std::string& ev = begin_event();
  ev += "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"tree-gather\","
        "\"name\":\"level ";
  ev += std::to_string(e.level);
  ev += " gather\",\"ts\":";
  append_ts(ev, e.time);
  ev += ",\"dur\":";
  append_ts(ev, std::max<sim::Time>(e.latency, 1));
  ev += ",\"args\":{\"senders\":";
  ev += std::to_string(e.senders);
  ev += ",\"max_fan_in\":";
  ev += std::to_string(e.max_fan_in);
  ev += "}}";
}

void ChromeTraceWriter::on_tree_failover(const TreeFailoverEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,"
        "\"name\":\"tree failover: ";
  ev += std::to_string(e.failed);
  ev += " -> ";
  ev += std::to_string(e.promoted);
  ev += " (+";
  ev += std::to_string(e.adopted);
  ev += " adopted)\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::on_phase_change(const PhaseChangeEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"name\":\"phase ";
  ev += std::to_string(e.from_phase);
  ev += " -> ";
  ev += std::to_string(e.to_phase);
  ev += "\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::on_fault(const FaultEvent& e) {
  std::string& ev = begin_event();
  ev += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"name\":\"fault: ";
  ev.append(e.type.data(), e.type.size());
  ev += " @ rank ";
  ev += std::to_string(e.victim);
  ev += "\",\"ts\":";
  append_ts(ev, e.time);
  ev += '}';
}

void ChromeTraceWriter::write(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out << ',';
    out << '\n' << events_[i];
  }
  out << "\n]}\n";
}

}  // namespace parastack::obs
