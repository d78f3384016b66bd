#ifndef DIMSUM_SIM_FAULT_H_
#define DIMSUM_SIM_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace dimsum::sim {

/// One contiguous virtual-time window during which a component is faulted.
/// Windows are half-open: the component is faulted at t iff
/// start_ms <= t < end_ms.
struct FaultWindow {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// What a link fault does to transfers started inside its windows.
enum class LinkFaultKind {
  kDelay,  // time on the wire is multiplied by delay_factor
  kDrop,   // the message is lost and must be retransmitted
};

/// One clause of a fault specification: a target (a site's CPU+disks, or
/// the shared network link) and either a one-shot window (at/for) or a
/// seeded renewal process (uptime ~ Exp(mtbf), downtime ~ Exp(mttr)).
struct FaultClause {
  enum class Target { kSite, kLink };
  Target target = Target::kSite;
  SiteId site = kUnboundSite;  // kSite only
  LinkFaultKind link_kind = LinkFaultKind::kDelay;  // kLink only
  double delay_factor = 1.0;  // kDelay only: transfer-time multiplier

  bool one_shot = false;
  double at_ms = 0.0;    // one-shot: window start
  double for_ms = 0.0;   // one-shot: window length
  double mtbf_ms = 0.0;  // renewal: mean time between failures
  double mttr_ms = 0.0;  // renewal: mean time to repair
  uint64_t seed = 0;     // renewal: per-clause stream seed
};

/// A full fault schedule. An empty schedule means a healthy run; the
/// executor then keeps its null-fault fast paths, so healthy results stay
/// bit-identical to builds without the fault layer.
struct FaultSchedule {
  std::vector<FaultClause> clauses;
  bool empty() const { return clauses.empty(); }
};

/// Parses the `--faults=` spec grammar; check-fails with a message naming
/// the offending clause on malformed input.
///
/// Grammar: clauses joined by ';', each `kind:key=value[,key=value...]`:
///   crash:site=<id>,at=<ms>,for=<ms>
///   crash:site=<id>,mtbf=<ms>,mttr=<ms>[,seed=<n>]
///   link:drop,at=<ms>,for=<ms>
///   link:drop,mtbf=<ms>,mttr=<ms>[,seed=<n>]
///   link:delay=<factor>,at=<ms>,for=<ms>
///   link:delay=<factor>,mtbf=<ms>,mttr=<ms>[,seed=<n>]
/// An empty spec is the empty (healthy) schedule.
FaultSchedule ParseFaultSpec(const std::string& spec);

/// Run-time fault oracle over a schedule: answers "is this site/link
/// faulted at virtual time t?". Renewal clauses generate their windows
/// lazily from per-clause seeded streams, so the generated timeline
/// depends only on the schedule (seed included) and how far virtual time
/// has advanced -- never on query order or host threading. This keeps
/// faulted runs bit-deterministic for a fixed seed.
class FaultState {
 public:
  explicit FaultState(const FaultSchedule& schedule);

  // --- site crashes (fail-stop: CPU + all disks of the site) ------------
  bool SiteDown(SiteId site, double now_ms);
  /// Earliest restart time covering `now_ms`; requires SiteDown(site, now).
  double SiteUpAt(SiteId site, double now_ms);
  /// All distinct sites with a crash window active at `now_ms`, sorted.
  std::vector<SiteId> DownSites(double now_ms);
  /// True iff any site crash window overlaps [begin_ms, end_ms); used to
  /// classify completions as degraded for availability-windowed stats.
  bool AnySiteDownDuring(double begin_ms, double end_ms);

  // --- link faults ------------------------------------------------------
  /// Product of the delay factors of all delay windows active at `now_ms`
  /// (1.0 when the link is healthy).
  double LinkDelayFactor(double now_ms);
  /// True iff a drop window is active at `now_ms` (transfers started now
  /// are lost and must be retransmitted).
  bool LinkDropping(double now_ms);

  // --- reporting --------------------------------------------------------
  struct SiteWindow {
    SiteId site = kUnboundSite;
    FaultWindow window;
  };
  /// Every site crash window that begins before `horizon_ms`, in clause
  /// order then start order. Used for trace spans and downtime metrics.
  std::vector<SiteWindow> SiteWindowsUpTo(double horizon_ms);

 private:
  struct ClauseState {
    FaultClause clause;
    std::vector<FaultWindow> windows;  // sorted, non-overlapping
    Rng rng{0};
    double generated_until_ms = 0.0;
  };

  /// Extends a renewal clause's window list to cover virtual time `t_ms`.
  void EnsureUntil(ClauseState& cs, double t_ms);
  /// The window of `cs` containing `now_ms`, or null.
  const FaultWindow* ActiveWindow(ClauseState& cs, double now_ms);

  std::vector<ClauseState> clauses_;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_FAULT_H_
