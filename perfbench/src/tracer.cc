#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

int32_t Tracer::Begin(std::string name, uint64_t request_id) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t index = static_cast<int32_t>(spans_.size());
  const int64_t now = NowNs();
  spans_.push_back(Span{std::move(name), now, now, parent, request_id});
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int32_t Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, uint64_t request_id) {
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

double Tracer::SelfMs(int32_t index) const {
  std::vector<int32_t> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) children.push_back(static_cast<int32_t>(i));
  }
  return SelfMs(index, children);
}

double Tracer::SelfMs(int32_t index,
                      const std::vector<int32_t>& children) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (int32_t c : children) {
    const Span& child = spans_[static_cast<size_t>(c)];
    const int64_t lo = std::max(child.start_ns, span.start_ns);
    const int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end_ns - span.start_ns - union_ns) / 1e6;
}

std::map<std::string, std::vector<double>> Tracer::SelfMsByName() const {
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(
        SelfMs(static_cast<int32_t>(i), children[i]));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request_id << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
