// Trace sink: where per-round traces go. JsonlTraceSink streams one
// compact JSON object per round (plus one run-header line per run) so a
// 20-round run yields 20 replayable trace lines. TraceObserver bridges
// the Trainer's observer hooks to the sink:
//
//   JsonlTraceSink sink("bench_out/trace.jsonl");
//   TraceObserver tracer(sink);
//   trainer.add_observer(tracer);

#pragma once

#include <fstream>
#include <iosfwd>
#include <string>

#include "obs/observer.h"
#include "obs/trace.h"

namespace fed {

// One JSON object per line (JSONL). Each run starts with a header line
// {"run":{...}} whose "config" object holds every TrainerConfig leaf
// (core/config.h; "rounds" outside it counts this segment's rounds);
// every round then gets one round line, {"round":...,"phases":{...},
// "metrics":{...}} (round_line_to_json, obs/trace.h). Numbers round-trip
// exactly. The sink has one writer: TraceObserver calls it
// from the Trainer's round thread.
class JsonlTraceSink final {
 public:
  // kTruncate starts a fresh trace; kAppend continues an existing one —
  // the resumed run's header and rounds land after the crashed run's
  // lines, and the existing bytes count against the rotation budget, so
  // resuming never silently discards prior generations. A multi-segment
  // file has one {"run":...} header per segment; tools/trace_lint
  // understands the layout.
  enum class OpenMode { kTruncate, kAppend };

  // Rotated files kept besides `path` (see the constructor).
  static constexpr std::size_t kRotatedGenerations = 3;

  // Creates parent directories and opens `path` per `mode`.
  //
  // Size-bounded log rotation (--trace-rotate-mb): when the active file
  // would grow past `rotate_bytes`, it is renamed to `<path>.1` (older
  // generations shifting to `.2` and `.3`, the oldest beyond
  // kRotatedGenerations deleted) and a fresh file opens at `path`.
  // Rotation happens only at line boundaries and every new generation
  // re-writes the run-header line first, so each generation is a
  // self-contained JSONL trace that passes `trace_lint --jsonl` on its
  // own. `rotate_bytes == 0` (the default) disables rotation.
  explicit JsonlTraceSink(const std::string& path,
                          std::size_t rotate_bytes = 0,
                          OpenMode mode = OpenMode::kTruncate);
  // Streams to an externally-owned ostream (tests, stdout piping);
  // rotation does not apply.
  explicit JsonlTraceSink(std::ostream& out);

  void begin_run(const RunInfo& info);
  void write(const RoundMetrics& metrics, const RoundTrace& trace);
  void end_run(const TrainHistory& history);

  const std::string& path() const { return path_; }
  // Number of times the sink rolled the active file over.
  std::size_t rotations() const { return rotations_; }

 private:
  void emit(const std::string& line);
  void rotate();

  std::string path_;
  std::size_t rotate_bytes_ = 0;
  std::ofstream file_;
  std::ostream* out_;
  std::string header_line_;  // replayed at the top of each generation
  std::size_t bytes_written_ = 0;  // active generation
  std::size_t round_lines_ = 0;    // active generation
  std::size_t rotations_ = 0;
};

// Forwards observer hooks to a sink. The sink must outlive the observer.
class TraceObserver final : public TrainingObserver {
 public:
  explicit TraceObserver(JsonlTraceSink& sink) : sink_(&sink) {}

  void on_run_start(const RunInfo& info) override { sink_->begin_run(info); }
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override {
    sink_->write(metrics, trace);
  }
  void on_run_end(const TrainHistory& history) override {
    sink_->end_run(history);
  }

 private:
  JsonlTraceSink* sink_;
};

}  // namespace fed
