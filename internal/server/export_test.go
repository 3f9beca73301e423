package server

import "adaptivefilters/internal/stream"

// Queue applies a workload value to stream id like Deliver but leaves the
// report it owes queued, undrained, so a test can put several reports
// before one drain.
func (c *ClusterOf[V, C]) Queue(id stream.ID, v V) {
	if c.sources.Set(id, v) {
		c.receive(id, v)
	}
}
