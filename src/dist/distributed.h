#ifndef PARDB_DIST_DISTRIBUTED_H_
#define PARDB_DIST_DISTRIBUTED_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/forensics.h"

namespace pardb::dist {

// §3.3 of the paper: in a distributed database the concurrency graph is
// scattered over sites, so cycle detection requires cross-site
// communication, while deadlocks confined to one site remain cheap. This
// module partitions entities over sites by hash and classifies the
// deadlocks a run detected by how many sites their cycle spans. The run
// itself is an ordinary par::RunSharded run with forensics collected; the
// prevention schemes (wound-wait / wait-die) are engine handling modes.

// Hash partition of entities over sites.
std::uint32_t SiteOfEntity(EntityId entity, std::uint32_t num_sites);

struct SiteAnalysis {
  // A deadlock is *local* when every entity on its cycle lives on one site
  // (a per-site detector finds it without communication) and *multi-site*
  // otherwise.
  std::uint64_t deadlocks_local = 0;
  std::uint64_t deadlocks_multi_site = 0;
  double multi_site_fraction = 0.0;
  // Sites spanned by the widest deadlock.
  std::uint32_t max_sites_in_deadlock = 0;
};

// Classifies each dump's first cycle (the entities labeling its arcs) over
// `num_sites` hash sites. Pure; an empty input yields all zeros.
SiteAnalysis AnalyzeDeadlockSites(const std::vector<obs::DeadlockDump>& dumps,
                                  std::uint32_t num_sites);

}  // namespace pardb::dist

#endif  // PARDB_DIST_DISTRIBUTED_H_
