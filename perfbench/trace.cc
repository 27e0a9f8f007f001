#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "service/json.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0,
                        open_.empty() ? -1 : open_.back(), request});
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Record(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start_ns, end_ns,
                        open_.empty() ? -1 : open_.back(), request});
}

std::vector<Span> Tracer::SpansSince(std::size_t from) const {
  std::vector<Span> out(spans_.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(from, spans_.size())),
                        spans_.end());
  for (Span& s : out) {
    s.parent = s.parent >= static_cast<int>(from)
                   ? s.parent - static_cast<int>(from)
                   : -1;
  }
  return out;
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans_) {
    sm::Json obj = sm::Json::MakeObject();
    obj.Set("name", s.name);
    obj.Set("start_ns", static_cast<std::int64_t>(s.start_ns));
    obj.Set("end_ns", static_cast<std::int64_t>(s.end_ns));
    obj.Set("parent", s.parent);
    obj.Set("request", s.request);
    out << obj.Dump() << '\n';
  }
}

std::map<std::string, std::int64_t> SelfTimesNs(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const std::int64_t a = std::max(a0, s.start_ns);
      const std::int64_t b = std::min(b0, s.end_ns);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[s.name] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
