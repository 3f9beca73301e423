package cluster

import (
	"fmt"
	"sort"
)

// Move is one planned migration.
type Move struct {
	Tenant int // global tenant id
	From   int // current member
	To     int // target member
}

// RebalanceOptions tunes the load-driven rebalancer. The zero value is
// production-sane.
type RebalanceOptions struct {
	// HotFactor marks a member hot when its lifetime event count exceeds
	// HotFactor × the member mean (0 = 1.25).
	HotFactor float64
	// PendingFrac marks a member hot when its deepest shard backlog is at
	// or above PendingFrac × its mailbox capacity — the instantaneous
	// signal, catching a hot spot before lifetime counts show it
	// (0 = 0.5; negative disables the pending signal).
	PendingFrac float64
	// MaxMoves bounds migrations per pass (0 = 1). Small passes keep each
	// migration pause short and let the next pass observe the new balance.
	MaxMoves int
	// MinEvents suppresses rebalancing before the cluster has seen this
	// many routed events — early counts are all noise (0 = 1024).
	MinEvents uint64
}

func (o RebalanceOptions) hotFactor() float64 {
	if o.HotFactor <= 0 {
		return 1.25
	}
	return o.HotFactor
}

func (o RebalanceOptions) pendingFrac() float64 {
	if o.PendingFrac == 0 {
		return 0.5
	}
	return o.PendingFrac
}

func (o RebalanceOptions) maxMoves() int {
	if o.MaxMoves <= 0 {
		return 1
	}
	return o.MaxMoves
}

func (o RebalanceOptions) minEvents() uint64 {
	if o.MinEvents == 0 {
		return 1024
	}
	return o.MinEvents
}

// Plan proposes migrations off the hottest member, without executing
// them. A member is hot when its lifetime event count (wire.Stats
// TotalEvents) exceeds HotFactor × the mean, or its shard backlog
// (PendingEvents) crosses PendingFrac × mailbox capacity, both counted in
// events. Tenants move heaviest-first (by routed event count, tenant id
// breaking ties) to the coldest member, until the hot member's projected
// load falls to the mean or MaxMoves is reached. The plan is a pure function of member stats and
// the placement map, so identical load states plan identical moves.
func (c *Cluster) Plan(opts RebalanceOptions) ([]Move, error) {
	if len(c.members) < 2 {
		return nil, nil
	}
	stats, err := c.MemberStats()
	if err != nil {
		return nil, err
	}
	var total uint64
	for _, s := range stats {
		total += s.TotalEvents
	}
	if total < opts.minEvents() {
		return nil, nil
	}
	mean := float64(total) / float64(len(stats))

	// Hottest member: highest lifetime count among those flagged hot.
	hot := -1
	for m, s := range stats {
		overMean := float64(s.TotalEvents) > opts.hotFactor()*mean
		backlogged := opts.pendingFrac() >= 0 && s.QueueCap > 0 &&
			float64(s.Pending) >= opts.pendingFrac()*float64(s.QueueCap)
		if !overMean && !backlogged {
			continue
		}
		if hot < 0 || s.TotalEvents > stats[hot].TotalEvents ||
			(s.TotalEvents == stats[hot].TotalEvents && m < hot) {
			hot = m
		}
	}
	if hot < 0 {
		return nil, nil
	}
	cold := 0
	for m := 1; m < len(stats); m++ {
		if stats[m].TotalEvents < stats[cold].TotalEvents {
			cold = m
		}
	}
	if cold == hot {
		return nil, nil
	}

	// The hot member's tenants, heaviest routed-event count first.
	var candidates []int
	for g := range c.tenants {
		if c.tenants[g].alive && c.tenants[g].member == hot {
			candidates = append(candidates, g)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if c.tenants[a].events != c.tenants[b].events {
			return c.tenants[a].events > c.tenants[b].events
		}
		return a < b
	})

	var moves []Move
	projected := float64(stats[hot].TotalEvents)
	for _, g := range candidates {
		if len(moves) >= opts.maxMoves() || projected <= mean {
			break
		}
		// Never move a member's last tenant onto an already-hotter peer;
		// the move must reduce imbalance, not relocate it.
		if len(moves) == 0 && len(candidates) == 1 &&
			stats[cold].TotalEvents+c.tenants[g].events >= stats[hot].TotalEvents {
			break
		}
		moves = append(moves, Move{Tenant: g, From: hot, To: cold})
		projected -= float64(c.tenants[g].events)
	}
	return moves, nil
}

// Rebalance plans one pass (Plan) and executes it move by move through
// MigrateTenant, returning the moves actually applied. Call it from the
// cluster's single driving goroutine, between batches — each migration is
// a drain barrier on the two members involved.
func (c *Cluster) Rebalance(opts RebalanceOptions) ([]Move, error) {
	moves, err := c.Plan(opts)
	if err != nil {
		return nil, err
	}
	for i, mv := range moves {
		if err := c.MigrateTenant(mv.Tenant, mv.To); err != nil {
			return moves[:i], fmt.Errorf("cluster: rebalance move %d: %w", i, err)
		}
	}
	return moves, nil
}
