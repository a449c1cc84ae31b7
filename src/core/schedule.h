#ifndef MRS_CORE_SCHEDULE_H_
#define MRS_CORE_SCHEDULE_H_

#include <cstddef>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "cost/parallelize.h"
#include "resource/work_vector.h"

namespace mrs {

/// One operator clone placed at a site.
struct ClonePlacement {
  int op_id = -1;
  int clone_idx = 0;
  int site = -1;
  WorkVector work;
  double t_seq = 0.0;
  /// Virtual time the clone begins executing. Phase-aligned schedules
  /// (TREESCHEDULE / SYNCHRONOUS) leave this at 0 — their phases each get
  /// their own Schedule starting at a barrier. LISTSCHEDULE places clones
  /// mid-flight via PlaceAt, and the schedule's time evaluation then
  /// switches from the closed-form eq. (2) to the event sweep (see
  /// SiteFinish).
  double start = 0.0;
};

/// A schedule for one collection of concurrently executing operators
/// (paper Def. 5.1): a mapping of operator clones to sites such that no
/// two clones of the same operator share a site (constraint A — enforced
/// at placement time).
///
/// Site times follow eq. (2):
///   T_site(s) = max( max_{clones at s} T_seq, l(work(s)) )
/// and the schedule's makespan follows eq. (3): the max site time, i.e.
/// the larger of the slowest operator and the most congested resource.
///
/// Per-site placement lists are stored as index chains threaded through
/// the placement array (head/tail per site + one next link per placement)
/// instead of P growable vectors, so a Place call after ReserveFor
/// performs zero heap allocations — the property the steady-state
/// OPERATORSCHEDULE loop relies on (DESIGN.md §4f).
class Schedule {
 public:
  Schedule(int num_sites, int dims);

  /// Pre-sizes the placement storage (and registers the operator ids) for
  /// every clone of `ops`, so that the subsequent Place calls perform no
  /// heap allocation (for work vectors with d <= WorkVector::kInlineDims).
  /// Purely an optimization: placements and results are unchanged.
  void ReserveFor(const std::vector<ParallelizedOp>& ops);

  /// Places clone `clone_idx` of `op` at `site`. Fails if the site is out
  /// of range, the clone index is invalid, the clone was already placed,
  /// or the site already hosts another clone of the same operator.
  Status Place(const ParallelizedOp& op, int clone_idx, int site);

  /// Places clone `clone_idx` of `op` at `site` starting at virtual time
  /// `start`, which must be finite and >= 0 (plus the checks of Place). A
  /// non-zero start marks the schedule non-aligned: SiteFinish/Makespan
  /// switch to the event sweep over arrival times. PlaceAt with start == 0
  /// is exactly Place.
  Status PlaceAt(const ParallelizedOp& op, int clone_idx, int site,
                 double start);

  /// Places all clones of a rooted operator at its home sites.
  Status PlaceRooted(const ParallelizedOp& op);

  int num_sites() const { return num_sites_; }
  int dims() const { return dims_; }
  int num_placements() const { return static_cast<int>(placements_.size()); }
  const std::vector<ClonePlacement>& placements() const { return placements_; }

  /// Forward range over the indices (into placements()) of the clones
  /// placed at one site, in placement order.
  class SitePlacementRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = int;
      using difference_type = std::ptrdiff_t;
      using pointer = const int*;
      using reference = int;

      iterator(int cur, const std::vector<int>* next)
          : cur_(cur), next_(next) {}
      int operator*() const { return cur_; }
      iterator& operator++() {
        cur_ = (*next_)[static_cast<size_t>(cur_)];
        return *this;
      }
      iterator operator++(int) {
        iterator prev = *this;
        ++(*this);
        return prev;
      }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

     private:
      int cur_;
      const std::vector<int>* next_;
    };

    SitePlacementRange(int head, int count, const std::vector<int>* next)
        : head_(head), count_(count), next_(next) {}
    iterator begin() const { return iterator(head_, next_); }
    iterator end() const { return iterator(-1, next_); }
    size_t size() const { return static_cast<size_t>(count_); }
    bool empty() const { return count_ == 0; }

   private:
    int head_;
    int count_;
    const std::vector<int>* next_;
  };

  /// Clones placed at `site` (indices into placements()).
  SitePlacementRange SitePlacements(int site) const;

  /// Aggregate work vector at `site` (the vector sum of its clones).
  const WorkVector& SiteLoad(int site) const;

  /// l(work(s)): the busiest-resource load at `site`.
  double SiteLoadLength(int site) const;

  /// T_site(s) per eq. (2): max(max T_seq, l(work(s))), evaluated as if
  /// every clone at the site started at time 0. For aligned schedules this
  /// is the site's completion time; for non-aligned schedules prefer
  /// SiteFinish.
  double SiteTime(int site) const;

  /// True while every placement starts at time 0 (the historical
  /// phase-aligned case). All schedules built through Place/PlaceRooted
  /// are aligned; PlaceAt with a positive start clears the flag.
  bool aligned() const { return aligned_; }

  /// Completion time of the last clone at `site` under the optimal-stretch
  /// fluid discipline, honoring per-clone start times: the site's clones
  /// are swept through a SiteTimeline (core/site_timeline.h), eq. (2) on
  /// *remaining* work, which reduces to SiteTime exactly when all starts
  /// are 0 (and that closed form is used for aligned schedules).
  double SiteFinish(int site) const;

  /// Completion time of every placed clone (parallel to placements()),
  /// under the same discipline as SiteFinish. For aligned schedules every
  /// clone finishes at its site's SiteTime.
  std::vector<double> CloneFinishTimes() const;

  /// Response time of the schedule per eq. (3): max site completion time
  /// (SiteTime for aligned schedules, SiteFinish otherwise).
  double Makespan() const;

  /// True iff `site` already hosts a clone of `op_id`.
  bool HasOpAtSite(int op_id, int site) const;

  /// The home of an operator: the sites of its clones, indexed by clone
  /// number (so home[0] is the coordinator's site). Entries are -1 for
  /// unplaced clones; an operator never seen by Place/ReserveFor yields an
  /// empty vector.
  std::vector<int> HomeOf(int op_id) const;

  /// Verifies that every clone of every operator in `ops` is placed
  /// exactly once, rooted operators sit at their homes, and constraint A
  /// holds. (Placement-time checks make violations impossible through this
  /// API; Validate exists to check schedules assembled from parts.)
  Status Validate(const std::vector<ParallelizedOp>& ops) const;

  std::string ToString() const;

 private:
  /// Placement-chain anchors of one site.
  struct SiteChain {
    int head = -1;
    int tail = -1;
    int count = 0;
  };

  /// SweepSite over the site's clones, behind SiteFinish/CloneFinishTimes
  /// for non-aligned schedules; `finish`, when non-null, receives
  /// per-placement completion times (only entries for `site` are written).
  double SweepSiteFinish(int site, std::vector<double>* finish) const;

  int num_sites_;
  int dims_;
  bool aligned_ = true;
  std::vector<ClonePlacement> placements_;
  /// next_at_site_[p] = index of the next placement at the same site as
  /// placements_[p], or -1 (parallel to placements_).
  std::vector<int> next_at_site_;
  std::vector<SiteChain> site_chain_;
  std::vector<WorkVector> site_load_;
  std::vector<double> site_max_t_seq_;
  // op_id -> site per clone index (-1 = unplaced).
  std::unordered_map<int, std::vector<int>> op_sites_;
};

}  // namespace mrs

#endif  // MRS_CORE_SCHEDULE_H_
