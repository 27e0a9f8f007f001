// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer, recorded from the benchmark's own
// code: name, start, end, the span that was open when it began (its parent)
// and a request id shared by the spans of one operation. Spans stay in
// memory while the workload runs and are written out once, at exit, so the
// traced run pays only for two clock reads and a vector append per span.
//
// A disabled tracer records nothing: Scope is then a branch and no clock
// read, which is what the untraced (end-to-end) runs use.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  std::uint64_t request = 0;
};

// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index, or -1
  // when disabled. Single-threaded: spans nest strictly.
  int Begin(const std::string& name, std::uint64_t request = 0);
  void End(int index);

  // Adds an already-timed span (for intervals measured elsewhere, such as a
  // client request timed from its due time). Parent is the innermost open
  // span.
  void Record(const std::string& name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }
  // The spans recorded from index `from` on, with parents re-based to the
  // returned vector (a parent before `from` becomes -1).
  std::vector<Span> SpansSince(std::size_t from) const;

  // One JSON object per line: name, start_ns, end_ns, parent, request.
  void WriteJsonLines(const std::string& path) const;

  // RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t request = 0)
        : tracer_(tracer), index_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time per span name, in nanoseconds: each span's duration minus the
// part of its interval covered by its direct children (overlapping children
// are counted once), summed over all spans of that name.
std::map<std::string, std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench
