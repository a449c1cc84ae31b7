#include "core/site_timeline.h"

#include <algorithm>
#include <limits>

namespace mrs {

double SiteTimeline::Project() {
  longest_own_ = 0.0;
  load_.SetZero();
  for (const Resident& r : residents_) {
    longest_own_ = std::max(longest_own_, r.own);
    load_ += r.remaining;
  }
  finish_ = now_ + std::max(longest_own_, load_.Length());
  return finish_;
}

void SiteTimeline::AdvanceTo(double t, WorkVector* busy) {
  if (residents_.empty() || t <= now_) {
    now_ = std::max(now_, t);
    return;
  }
  const double factor = (finish_ - t) / (finish_ - now_);
  for (Resident& r : residents_) {
    if (busy != nullptr) busy->AddScaled(r.remaining, 1.0 - factor);
    r.remaining *= factor;
    r.own *= factor;
  }
  now_ = t;
}

void SiteTimeline::Complete(WorkVector* busy) {
  if (busy != nullptr) {
    for (const Resident& r : residents_) *busy += r.remaining;
  }
  residents_.clear();
  now_ = finish_;
}

void SortByArrival(std::vector<SiteArrival>* arrivals) {
  // Starts of one placement round are bit-identical doubles, so exact
  // comparisons keep the order deterministic.
  std::stable_sort(arrivals->begin(), arrivals->end(),
                   [](const SiteArrival& a, const SiteArrival& b) {
                     return a.start < b.start;
                   });
}

double SweepSite(const std::vector<SiteArrival>& arrivals, size_t dims,
                 std::vector<double>* finish, WorkVector* busy) {
  SiteTimeline site(dims);
  size_t i = 0;
  const size_t n = arrivals.size();
  site.Reserve(n);
  const auto admit = [&] {
    while (i < n && arrivals[i].start <= site.now()) {
      site.Arrive(arrivals[i].id, *arrivals[i].work, arrivals[i].t_seq);
      ++i;
    }
  };
  while (i < n || !site.empty()) {
    if (site.empty()) {
      site.AdvanceTo(arrivals[i].start);  // idle until the next wave
      admit();
    }
    const double f = site.Project();
    const double next_arrival =
        i < n ? arrivals[i].start : std::numeric_limits<double>::infinity();
    if (next_arrival < f) {
      site.AdvanceTo(next_arrival, busy);
      admit();
    } else {
      if (finish != nullptr) {
        for (const SiteTimeline::Resident& r : site.residents()) {
          (*finish)[static_cast<size_t>(r.id)] = f;
        }
      }
      site.Complete(busy);
    }
  }
  return site.now();
}

}  // namespace mrs
