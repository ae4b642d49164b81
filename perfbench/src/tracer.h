#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file tracer.h
/// \brief In-memory span recorder for the traced run. Spans are recorded
/// by the benchmark around each call into a layer; each carries a name,
/// start, end, parent and request id. They stay in memory and are written
/// out once at the end. Single-threaded: the traced run makes its layer
/// calls from one thread.
namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in `Tracer::spans()`, -1 for a root.
  int32_t parent = -1;
  uint64_t request_id = 0;

  double duration_ms() const { return (end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span under the innermost open span (or as a root) and
  /// returns its index.
  int32_t Begin(std::string name, uint64_t request_id);
  /// Closes span `index`, which must be the innermost open one.
  void End(int32_t index);
  /// Records a closed span with a known interval under `parent` (used for
  /// phases the engine times itself and reports in its stats).
  int32_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Self time of span `index`: its duration minus the part of its
  /// interval that its children's intervals cover.
  double SelfMs(int32_t index) const;

  /// Self times of every span, grouped by span name.
  std::map<std::string, std::vector<double>> SelfMsByName() const;

  /// Writes one JSON object per span (name, start/end ns, parent, id).
  bool WriteJsonLines(const std::string& path) const;

 private:
  double SelfMs(int32_t index, const std::vector<int32_t>& children) const;

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// \brief RAII span: opens on construction, closes on destruction. A null
/// tracer makes it a no-op, so traced and untraced paths share code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t request_id)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(std::move(name), request_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench
