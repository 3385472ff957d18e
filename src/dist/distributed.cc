#include "dist/distributed.h"

#include <algorithm>
#include <set>

namespace pardb::dist {

std::uint32_t SiteOfEntity(EntityId entity, std::uint32_t num_sites) {
  if (num_sites == 0) return 0;
  // Fibonacci hash so consecutive ids spread over sites.
  return static_cast<std::uint32_t>((entity.value() * 0x9e3779b97f4a7c15ULL) >>
                                    32) %
         num_sites;
}

SiteAnalysis AnalyzeDeadlockSites(const std::vector<obs::DeadlockDump>& dumps,
                                  std::uint32_t num_sites) {
  SiteAnalysis out;
  for (const obs::DeadlockDump& dump : dumps) {
    std::set<std::uint32_t> sites;
    for (const obs::WaitsForArc& arc : dump.arcs) {
      sites.insert(SiteOfEntity(arc.entity, num_sites));
    }
    if (sites.size() <= 1) {
      ++out.deadlocks_local;
    } else {
      ++out.deadlocks_multi_site;
    }
    out.max_sites_in_deadlock = std::max(
        out.max_sites_in_deadlock, static_cast<std::uint32_t>(sites.size()));
  }
  out.multi_site_fraction =
      SafeRatio(out.deadlocks_multi_site,
                out.deadlocks_local + out.deadlocks_multi_site);
  return out;
}

}  // namespace pardb::dist
