#ifndef MRS_CORE_SITE_TIMELINE_H_
#define MRS_CORE_SITE_TIMELINE_H_

#include <cstddef>
#include <vector>

#include "resource/work_vector.h"

namespace mrs {

/// One site's resident clones under eq. (2) generalized to staggered
/// arrivals (assumptions A2/A3, the optimal-stretch fluid discipline):
/// every resident progresses toward one common completion
///   F = now + max( max_c own_c , l(sum_c remaining_c) ),
/// where remaining_c is a resident's remaining work vector and own_c its
/// remaining stand-alone time. When a clone arrives at t < F, every
/// resident has completed the fraction (t - now) / (F - now) of its
/// remainder, so both remainders scale by (F - t) / (F - now) and F is
/// projected again over the enlarged set. With every clone arriving at 0
/// this is exactly eq. (2).
///
/// This is the single implementation of that rule: Schedule's
/// non-aligned site times, the fluid simulator's optimal-stretch policy
/// and LISTSCHEDULE's event loop all step through it. Its floating-point
/// order is part of the contract (goldens and digests pin it): the sum of
/// remaining work starts from zero and runs in arrival order, a rescale
/// performs `remaining *= factor; own *= factor`, and completion adds
/// `busy += remaining`.
class SiteTimeline {
 public:
  struct Resident {
    int id = -1;  ///< the caller's handle, e.g. a placement index
    WorkVector remaining;
    double own = 0.0;  ///< remaining stand-alone time
  };

  explicit SiteTimeline(size_t dims) : load_(dims) {}

  /// Makes room for `n` residents, so arrivals up to that many never
  /// reallocate.
  void Reserve(size_t n) { residents_.reserve(n); }

  /// Adds a resident at now() carrying its full work and T_seq.
  void Arrive(int id, const WorkVector& work, double t_seq) {
    residents_.push_back(Resident{id, work, t_seq});
  }

  /// Projects the residents' common completion (eq. (2) over the
  /// remaining work) and returns it; finish(), load() and longest_own()
  /// then describe this projection until the next one.
  double Project();

  /// Moves the clock to `t`, with now() <= t < finish() while residents
  /// are present: they complete the fraction (t - now) / (finish - now)
  /// of their remainders, which `busy` (if non-null) receives before the
  /// remainders shrink. On an empty site, or for t <= now(), only the
  /// clock moves (never backwards).
  void AdvanceTo(double t, WorkVector* busy = nullptr);

  /// Finishes every resident at finish(): adds their remaining work to
  /// `busy` (if non-null), empties the site and moves now() to finish().
  void Complete(WorkVector* busy = nullptr);

  bool empty() const { return residents_.empty(); }
  double now() const { return now_; }
  /// The last projected completion (after Complete: the completion of
  /// the site's last wave; 0 before any projection).
  double finish() const { return finish_; }
  /// Summed remaining work of the last projection.
  const WorkVector& load() const { return load_; }
  /// Largest remaining stand-alone time of the last projection.
  double longest_own() const { return longest_own_; }
  const std::vector<Resident>& residents() const { return residents_; }

 private:
  std::vector<Resident> residents_;
  WorkVector load_;
  double longest_own_ = 0.0;
  double now_ = 0.0;
  double finish_ = 0.0;
};

/// One clone joining its site: arrival instant, caller handle, and the
/// work vector and T_seq it brings (`work` must outlive the sweep).
struct SiteArrival {
  double start = 0.0;
  int id = -1;
  const WorkVector* work = nullptr;
  double t_seq = 0.0;
};

/// Arrival order: by start, caller order within equal starts.
void SortByArrival(std::vector<SiteArrival>* arrivals);

/// Runs one site's arrivals (in SortByArrival order, finite starts)
/// through a SiteTimeline: the site idles until the next arrival, admits
/// every clone starting by the current instant, and either advances to
/// the next arrival or completes the wave. Writes each clone's completion
/// to (*finish)[id] when `finish` is non-null, adds the work done to
/// `busy` when non-null, and returns the completion of the last wave (0
/// for no arrivals).
double SweepSite(const std::vector<SiteArrival>& arrivals, size_t dims,
                 std::vector<double>* finish, WorkVector* busy);

}  // namespace mrs

#endif  // MRS_CORE_SITE_TIMELINE_H_
