// Package multidim extends the paper's one-dimensional protocols to
// two-dimensional data, as §7 anticipates ("the concepts of our protocols
// can be extended to multiple dimensions"): stream values are points in the
// plane, filter constraints are disks (filter.Region) around the query
// point, and the rank- and fraction-based tolerance protocols carry over
// with |V−q| replaced by Euclidean distance.
//
// The geometry lives in internal/filter (Point, Region) and the sources and
// hosting are the planar instantiations of the one generic stack
// (stream.Source, server.SpatialCluster): this package holds the 2-D
// protocols themselves — FTRP2D and RTP2D, both
// server.SpatialStatefulProtocol implementations that run under any
// server.SpatialHost, including runtime.Node's shard event loops.
package multidim

import "adaptivefilters/internal/filter"

// Point is a location in the plane (an alias of filter.Point, where the
// spatial geometry now lives).
type Point = filter.Point

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 { return filter.Dist(a, b) }
