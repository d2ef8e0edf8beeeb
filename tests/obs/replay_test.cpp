#include "obs/replay.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/journal.hpp"

namespace parastack::obs {
namespace {

// Emit a representative event mix into a sink. String-view fields point
// at a short-lived buffer on purpose: the recorder must deep-copy them.
void emit_stream(TelemetrySink& sink) {
  {
    std::string bench = "lu";
    std::string input = "C";
    std::string platform = "tianhe2";
    std::string fault = "compute_hang";
    RunStartEvent start;
    start.bench = bench;
    start.input = input;
    start.nranks = 32;
    start.nnodes = 2;
    start.platform = platform;
    start.seed = 1234;
    start.run_index = 3;
    start.estimated_clean = 100 * sim::kSecond;
    start.walltime = 200 * sim::kSecond;
    start.fault_planned = fault;
    sink.on_run_start(start);
  }  // the backing strings die here

  SampleEvent sample;
  sample.time = 5 * sim::kSecond;
  sample.observation = 1;
  sample.scrout = 0.25;
  sample.threshold = 0.1;
  sink.on_sample(sample);

  HangEvent hang;
  hang.time = 50 * sim::kSecond;
  hang.computation_error = true;
  hang.faulty_ranks = {7, 9};
  hang.streak = 4;
  hang.q = 0.05;
  hang.required_streak = 4;
  sink.on_hang(hang);
}

std::string journal_of(const RecordingSink* recording) {
  std::ostringstream out;
  JsonlJournal journal(out);
  if (recording != nullptr) {
    recording->replay(journal);
  } else {
    emit_stream(journal);
  }
  return out.str();
}

TEST(RecordingSink, ReplayMatchesDirectEmissionByteForByte) {
  RecordingSink recording;
  emit_stream(recording);
  EXPECT_EQ(recording.size(), 3u);
  EXPECT_EQ(journal_of(&recording), journal_of(nullptr));
}

TEST(RecordingSink, SurvivesTheProducersStringsDying) {
  // emit_stream's RunStartEvent views local strings that are gone by the
  // time we replay; the interned copies must still render correctly.
  RecordingSink recording;
  emit_stream(recording);
  const std::string text = journal_of(&recording);
  EXPECT_NE(text.find("tianhe2"), std::string::npos);
  EXPECT_NE(text.find("compute_hang"), std::string::npos);
  // A second stream reuses the pooled copies instead of adding more.
  const std::size_t pooled = recording.interned_strings();
  EXPECT_EQ(pooled, 4u);
  emit_stream(recording);
  EXPECT_EQ(recording.interned_strings(), pooled);
  EXPECT_EQ(journal_of(&recording), text + text);
}

TEST(RecordingSink, InternsEachDistinctStringOnce) {
  // Rank spans repeat a handful of function names; the recorder keeps one
  // copy of each, whatever the producer's buffers do between events.
  RecordingSink recording(true);
  // Same length on purpose: only the text tells them apart.
  const char* const names[] = {"MPI_Send", "MPI_Recv", "MPI_Wait"};
  for (int i = 0; i < 10000; ++i) {
    const std::string func = names[i % 3];  // a fresh buffer every event
    RankSpanEvent span;
    span.rank = i % 16;
    span.func = func;
    span.begin = i;
    span.end = i + 1;
    recording.on_rank_span(span);
  }
  EXPECT_EQ(recording.size(), 10000u);
  EXPECT_EQ(recording.interned_strings(), 3u);

  std::ostringstream out;
  JsonlJournal journal(out, JsonlJournal::Options{true});
  recording.replay(journal);
  EXPECT_EQ(journal.lines_written(), 10000u);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"func\":\"MPI_Wait\",\"begin_ns\":9998,"),
            std::string::npos);
  EXPECT_NE(text.find("\"func\":\"MPI_Recv\",\"begin_ns\":9997,"),
            std::string::npos);
}

TEST(RecordingSink, ReplayIsRepeatable) {
  RecordingSink recording;
  emit_stream(recording);
  EXPECT_EQ(journal_of(&recording), journal_of(&recording));
}

TEST(RecordingSink, MirrorsRankSpanAppetite) {
  EXPECT_FALSE(RecordingSink(false).wants_rank_spans());
  EXPECT_TRUE(RecordingSink(true).wants_rank_spans());
}

TEST(RecordingSink, StartsEmpty) {
  const RecordingSink recording;
  EXPECT_TRUE(recording.empty());
  EXPECT_EQ(recording.size(), 0u);
}

}  // namespace
}  // namespace parastack::obs
