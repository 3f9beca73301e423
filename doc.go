// Package adaptivefilters reproduces "Adaptive Stream Filters for
// Entity-based Queries with Non-Value Tolerance" (Cheng, Kao, Prabhakar,
// Kwan, Tu; VLDB 2005).
//
// The implementation lives under internal/: the paper's protocols in
// internal/core, the distributed-stream substrate in internal/stream,
// internal/server and internal/comm, the evaluation
// harness in internal/experiment, and the workload generators in
// internal/workload; the sharded multi-tenant serving layer is
// internal/runtime. See README.md for a tour and DESIGN.md for the system
// inventory, the design decisions behind the reproduced evaluation, and
// the Host/runtime layering.
//
// The root package only carries module-level documentation and the
// benchmark suite (bench_test.go) that regenerates every figure of the
// paper's evaluation section.
package adaptivefilters

// Version identifies the reproduction release.
const Version = "1.0.0"
