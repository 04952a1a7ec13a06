package shard

import (
	"strconv"

	"repro/internal/metrics"
)

// Registry returns one registry aggregating every shard's metrics, building
// it on first use. Each engine series appears once per shard under the same
// family name with a "shard" label, so a single scrape (or WriteJSON dump)
// covers the whole store and dashboards sum or fan out by label.
func (r *Router) Registry() *metrics.Registry {
	r.registryOnce.Do(func() {
		reg := metrics.NewRegistry()
		for i, db := range r.shards {
			// Registration failures on a fresh registry are programming
			// errors (static names, disjoint shard labels); surface them
			// loudly rather than dropping series.
			if err := db.RegisterMetrics(reg, metrics.Labels{"shard": strconv.Itoa(i)}); err != nil {
				panic(err)
			}
		}
		r.registry = reg
	})
	return r.registry
}
