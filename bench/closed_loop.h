#ifndef PARDB_BENCH_CLOSED_LOOP_H_
#define PARDB_BENCH_CLOSED_LOOP_H_

// The closed loop every paper-reproduction table runs on (§1): one shard of
// par::RunSharded whose programs all come from one generator over the whole
// entity universe, uninstrumented (the tables read the report, not the
// metrics registry), with the 50M-step budget the tables were sized for.

#include "par/sharded_driver.h"

namespace pardb::bench {

inline par::ShardedOptions ClosedLoop() {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.instrument = false;
  opt.max_steps_per_shard = 50'000'000;
  return opt;
}

}  // namespace pardb::bench

#endif  // PARDB_BENCH_CLOSED_LOOP_H_
