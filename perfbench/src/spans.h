#pragma once
/// \file spans.h
/// \brief Aggregation of the program's trace spans (obs/trace.h) into call
/// counts, inclusive and self time per span name, overall and per track
/// (a track is a virtual rank, or a thread outside any rank task).

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct SpanTotals {
  long calls = 0;
  double incl_s = 0;  ///< summed span durations
  double self_s = 0;  ///< durations minus the time covered by child spans
};

struct SpanProfile {
  std::map<std::string, SpanTotals> by_name;
  /// (name, track) -> totals; tracks are virtual ranks 0..N-1 or
  /// lqcd::kFallbackTrackBase + thread slot.
  std::map<std::pair<std::string, int>, SpanTotals> by_name_track;

  SpanTotals of(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? SpanTotals{} : it->second;
  }
  /// The largest per-track total of \p name over the rank tracks (the
  /// slowest rank), 0 if no rank recorded it.
  double slowest_rank_incl_s(const std::string& name) const {
    double worst = 0;
    for (const auto& [key, t] : by_name_track) {
      if (key.first == name && key.second < lqcd::kFallbackTrackBase) {
        worst = std::max(worst, t.incl_s);
      }
    }
    return worst;
  }
};

/// Spans on one track never overlap partially: a span either contains a
/// later one (its child, possibly several levels down) or ends before it
/// starts.  Walking each track in begin order with a stack of open spans
/// gives every span its direct parent; a parent's self time loses each
/// direct child's duration.
inline SpanProfile aggregate_spans(std::vector<lqcd::SpanEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const lqcd::SpanEvent& a, const lqcd::SpanEvent& b) {
              if (a.track != b.track) return a.track < b.track;
              if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
              return a.dur_us > b.dur_us;  // parent before an equal-start child
            });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.track == e.track && e.begin_us < top.begin_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += e.dur_us;
    open.push_back(i);
  }
  SpanProfile p;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const double incl = 1e-6 * e.dur_us;
    const double self = 1e-6 * std::max(0.0, e.dur_us - child_us[i]);
    for (SpanTotals* t : {&p.by_name[e.name], &p.by_name_track[{e.name, e.track}]}) {
      ++t->calls;
      t->incl_s += incl;
      t->self_s += self;
    }
  }
  return p;
}

}  // namespace perfbench
