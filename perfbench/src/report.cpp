#include "report.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t SpanLog::add(const std::string& name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t group) {
  return add_at(name, seconds_between(origin_, start),
                seconds_between(origin_, end), parent, group);
}

std::uint64_t SpanLog::add_at(const std::string& name, double start_s,
                              double end_s, std::uint64_t parent,
                              std::uint64_t group) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.group = group;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::finish(std::uint64_t id, Clock::time_point end) {
  if (id >= 1 && id <= spans_.size())
    spans_[id - 1].end_s = seconds_between(origin_, end);
}

double SpanLog::unattributed_s(std::uint64_t parent) const {
  if (parent == 0 || parent > spans_.size()) return 0.0;
  const Span& p = spans_[parent - 1];
  // Children may overlap (a producer thread runs beside the trainer), so
  // merge their intervals before subtracting.
  std::vector<std::pair<double, double>> cover;
  for (const Span& s : spans_)
    if (s.parent == parent)
      cover.emplace_back(std::max(s.start_s, p.start_s),
                         std::min(s.end_s, p.end_s));
  std::sort(cover.begin(), cover.end());
  double covered = 0.0, reach = p.start_s;
  for (const auto& [a, b] : cover) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return std::max(0.0, (p.end_s - p.start_s) - covered);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.group
        << ",\"ts\":" << json_number(s.start_s * 1e6)
        << ",\"dur\":" << json_number((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check("metric " + name + " is finite", false, "value is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::exact(const std::string& name, double value) {
  exact_.push_back({name, value, ""});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

bool Report::ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print() const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const Check& c : checks_)
    std::printf("check %-4s %s%s%s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
  for (const Metric& m : metrics_)
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::ostringstream js;
  js << "{\"ok\":" << (ok() ? "true" : "false") << ",\"attempted\":"
     << attempted << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    js << (i ? "," : "") << json_string(metrics_[i].name)
       << ":{\"value\":" << json_number(metrics_[i].value)
       << ",\"unit\":" << json_string(metrics_[i].unit) << "}";
  js << "},\"exact\":{";
  for (std::size_t i = 0; i < exact_.size(); ++i)
    js << (i ? "," : "") << json_string(exact_[i].name) << ":"
       << json_number(exact_[i].value);
  js << "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i)
    js << (i ? "," : "") << "{\"name\":" << json_string(checks_[i].name)
       << ",\"ok\":" << (checks_[i].ok ? "true" : "false") << "}";
  js << "]}";
  std::printf("RESULT %s\n", js.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
