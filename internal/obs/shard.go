package obs

import "strconv"

// ShardPlanName returns the canonical per-shard plan name "<base>.shard[i]"
// of the sharded backend (internal/shard, docs/SHARDING.md): engine i runs
// its share of a sharded call under it, so the regular per-plan collector
// separates the shards' busy time and imbalance, and tools/obscheck's
// schema gate admits it.
func ShardPlanName(base string, shard int) string {
	return base + ".shard[" + strconv.Itoa(shard) + "]"
}
