// Package protospec is the declarative, serializable description of a
// standing query's protocol configuration — the piece of a tenant spec that
// can cross a process boundary.
//
// runtime.TenantSpec carries protocol *factories* (closures), which work
// in-process but cannot be shipped over the network serving plane's wire.
// A Spec names the protocol and its parameters instead; Factory compiles
// it into the closure form every in-process layer consumes. cmd/streamsim
// builds Specs from its flags (both to run locally and to drive a remote
// node), and internal/netserve decodes them from wire frames when a client
// admits tenants or queries remotely — one switch, shared by every entry
// point, instead of the per-command protocol tables that preceded it.
//
// Specs off the wire are untrusted input: Validate rejects unknown
// protocols, non-finite parameters and rank bounds that the protocol
// constructors would panic on, so a malformed admission fails with an
// error frame instead of crashing a shard loop.
package protospec

import (
	"fmt"
	"math"
	"slices"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
)

// Selection names for Spec.Selection.
const (
	// SelectBoundary is the boundary-nearest silent-filter selection
	// heuristic (the default).
	SelectBoundary = "boundary"
	// SelectRandom is uniform random silent-filter selection.
	SelectRandom = "random"
)

// Protocols lists every protocol name a Spec may carry; Validate refuses
// anything else.
var Protocols = []string{"no-filter", "zt-nrp", "ft-nrp", "rtp", "zt-rp", "ft-rp", "vb-knn", "rtp2d", "ft-rp2d"}

// Spec describes one protocol instance declaratively. The zero value is
// not valid; Protocol must name one of the internal/core protocols.
type Spec struct {
	// Protocol is one of Protocols.
	Protocol string
	// Lo, Hi bound the range query of the non-rank protocols.
	Lo, Hi float64
	// K is the rank requirement of the rank-based protocols; R is RTP's
	// rank slack.
	K, R int
	// Q is the k-NN query point; Top replaces it with q=+inf (top-k).
	Q   float64
	Top bool
	// EpsPlus, EpsMinus are the fraction tolerances of FT-NRP and FT-RP.
	EpsPlus, EpsMinus float64
	// Width is VB-kNN's value tolerance.
	Width float64
	// Selection picks the silent-filter selection heuristic for the
	// fraction-tolerant protocols: SelectBoundary (also the empty string)
	// or SelectRandom.
	Selection string
	// QX, QY are the planar query point of the spatial protocols (rtp2d,
	// ft-rp2d), which use K/R/EpsPlus/EpsMinus exactly as their 1-D
	// counterparts do and ignore Q/Top.
	QX, QY float64
}

// Spatial reports whether the spec names a 2-D protocol, which compiles via
// SpatialFactory instead of Factory and (for now) runs in-process only —
// the network serving plane rejects spatial admissions.
func (s Spec) Spatial() bool {
	switch s.Protocol {
	case "rtp2d", "ft-rp2d":
		return true
	}
	return false
}

// rangeBased reports whether the spec's protocol answers a range query
// (otherwise it is rank-based and uses K/Q/Top).
func (s Spec) rangeBased() bool {
	switch s.Protocol {
	case "no-filter", "zt-nrp", "ft-nrp":
		return true
	}
	return false
}

// Validate checks the spec against stream-partition size n, mirroring the
// constructor invariants of internal/core so a bad spec surfaces as an
// error — never as a panic inside a shard loop. It subsumes the per-flag
// checks cmd/streamsim grew in PR 4.
func (s Spec) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("protospec: need at least 1 stream, got %d", n)
	}
	if !slices.Contains(Protocols, s.Protocol) {
		return fmt.Errorf("protospec: unknown protocol %q", s.Protocol)
	}
	// In a fixed order, so a spec with several bad parameters is always
	// refused under the same name.
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"lo", s.Lo}, {"hi", s.Hi}, {"q", s.Q}, {"qx", s.QX}, {"qy", s.QY},
		{"eps-plus", s.EpsPlus}, {"eps-minus", s.EpsMinus}, {"width", s.Width},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("protospec: %s: parameter %s is not finite (%g)", s.Protocol, p.name, p.v)
		}
	}
	switch s.Selection {
	case "", SelectBoundary, SelectRandom:
	default:
		return fmt.Errorf("protospec: unknown selection %q (want %q or %q)",
			s.Selection, SelectBoundary, SelectRandom)
	}
	tol := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
	switch s.Protocol {
	case "no-filter", "zt-nrp":
		// Range-only: no further parameters.
	case "ft-nrp":
		if err := tol.Validate(); err != nil {
			return fmt.Errorf("protospec: ft-nrp: %w", err)
		}
	case "rtp":
		if s.K < 1 || s.R < 0 || s.K+s.R >= n {
			return fmt.Errorf("protospec: rtp needs k >= 1, r >= 0 and k+r < n; got k=%d r=%d n=%d",
				s.K, s.R, n)
		}
	case "zt-rp":
		if s.K < 1 || s.K >= n {
			return fmt.Errorf("protospec: zt-rp needs 1 <= k < n; got k=%d n=%d", s.K, n)
		}
	case "ft-rp":
		if s.K < 1 || s.K >= n {
			return fmt.Errorf("protospec: ft-rp needs 1 <= k < n; got k=%d n=%d", s.K, n)
		}
		if err := tol.Validate(); err != nil {
			return fmt.Errorf("protospec: ft-rp: %w", err)
		}
	case "vb-knn":
		if s.K < 1 || s.K > n {
			return fmt.Errorf("protospec: vb-knn needs 1 <= k <= n; got k=%d n=%d", s.K, n)
		}
		if s.Width < 0 {
			return fmt.Errorf("protospec: vb-knn needs width >= 0, got %g", s.Width)
		}
	case "rtp2d":
		if s.K < 1 || s.R < 0 || s.K+s.R >= n {
			return fmt.Errorf("protospec: rtp2d needs k >= 1, r >= 0 and k+r < n; got k=%d r=%d n=%d",
				s.K, s.R, n)
		}
	case "ft-rp2d":
		if s.K < 1 || s.K >= n {
			return fmt.Errorf("protospec: ft-rp2d needs 1 <= k < n; got k=%d n=%d", s.K, n)
		}
		if err := tol.Validate(); err != nil {
			return fmt.Errorf("protospec: ft-rp2d: %w", err)
		}
	}
	if s.rangeBased() && s.Lo > s.Hi {
		return fmt.Errorf("protospec: %s: empty range [%g,%g]", s.Protocol, s.Lo, s.Hi)
	}
	return nil
}

// center resolves the spec's k-NN query point.
func (s Spec) center() query.Center {
	if s.Top {
		return query.Top()
	}
	return query.At(s.Q)
}

// selection resolves the silent-filter selection heuristic.
func (s Spec) selection() core.Selection {
	if s.Selection == SelectRandom {
		return core.SelectRandom
	}
	return core.SelectBoundaryNearest
}

// Factory compiles the spec into the protocol-factory closure the runtime
// and experiment layers consume. Call Validate first: Factory assumes a
// valid spec and defers any remaining size checks to the constructors.
// Spatial specs compile through SpatialFactory instead and are an error
// here.
func (s Spec) Factory() (func(h server.Host, seed int64) server.Protocol, error) {
	if s.Spatial() {
		return nil, fmt.Errorf("protospec: %s is a spatial protocol; use SpatialFactory", s.Protocol)
	}
	rng := query.NewRange(s.Lo, s.Hi)
	center := s.center()
	tol := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
	switch s.Protocol {
	case "no-filter":
		return func(h server.Host, _ int64) server.Protocol {
			return core.NewNoFilterRange(h, rng)
		}, nil
	case "zt-nrp":
		return func(h server.Host, _ int64) server.Protocol {
			return core.NewZTNRP(h, rng)
		}, nil
	case "ft-nrp":
		sel := s.selection()
		return func(h server.Host, seed int64) server.Protocol {
			return core.NewFTNRP(h, rng, core.FTNRPConfig{Tol: tol, Selection: sel, Seed: seed})
		}, nil
	case "rtp":
		rt := core.RankTolerance{K: s.K, R: s.R}
		return func(h server.Host, _ int64) server.Protocol {
			return core.NewRTP(h, center, rt)
		}, nil
	case "zt-rp":
		k := s.K
		return func(h server.Host, _ int64) server.Protocol {
			return core.NewZTRP(h, center, k)
		}, nil
	case "ft-rp":
		k, sel := s.K, s.selection()
		return func(h server.Host, seed int64) server.Protocol {
			fc := core.DefaultFTRPConfig(tol)
			fc.Selection = sel
			fc.Seed = seed
			return core.NewFTRP(h, center, k, fc)
		}, nil
	case "vb-knn":
		knn := query.KNN{Q: center, K: s.K}
		width := s.Width
		return func(h server.Host, _ int64) server.Protocol {
			return core.NewVBKNN(h, knn, width)
		}, nil
	}
	return nil, fmt.Errorf("protospec: unknown protocol %q", s.Protocol)
}

// SpatialFactory compiles a spatial spec into the 2-D protocol-factory
// closure runtime.TenantSpec.NewSpatial consumes: the protocols of Factory
// around the planar center (QX, QY). Call Validate first. Non-spatial
// specs compile through Factory and are an error here.
func (s Spec) SpatialFactory() (func(h server.SpatialHost, seed int64) server.SpatialProtocol, error) {
	q := query.Around(filter.Point{X: s.QX, Y: s.QY})
	switch s.Protocol {
	case "rtp2d":
		rt := core.RankTolerance{K: s.K, R: s.R}
		return func(h server.SpatialHost, _ int64) server.SpatialProtocol {
			return core.NewRTP(h, q, rt)
		}, nil
	case "ft-rp2d":
		k, sel := s.K, s.selection()
		tol := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
		return func(h server.SpatialHost, seed int64) server.SpatialProtocol {
			fc := core.DefaultFTRPConfig(tol)
			fc.Selection = sel
			fc.Seed = seed
			return core.NewFTRP(h, q, k, fc)
		}, nil
	}
	return nil, fmt.Errorf("protospec: %s is not a spatial protocol; use Factory", s.Protocol)
}

// Guarantee is what the spec's protocol promises about its answer — the
// rule an oracle.Auditor holds the served answer to, and the only place a
// protocol name is mapped to one. Call Validate first.
func (s Spec) Guarantee() (oracle.Guarantee, error) {
	rng := query.NewRange(s.Lo, s.Hi)
	knn := query.KNN{Q: s.center(), K: s.K}
	at := filter.Point{X: s.QX, Y: s.QY}
	tol := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
	switch s.Protocol {
	case "no-filter", "zt-nrp":
		return oracle.FractionRange(rng, core.FractionTolerance{}), nil
	case "ft-nrp":
		return oracle.FractionRange(rng, tol), nil
	case "rtp":
		return oracle.Rank(knn.Q, core.RankTolerance{K: s.K, R: s.R}), nil
	case "zt-rp":
		return oracle.Rank(knn.Q, core.RankTolerance{K: s.K}), nil
	case "ft-rp":
		return oracle.FractionKNN(knn, tol), nil
	case "vb-knn":
		return oracle.ValueKNN(knn, s.Width), nil
	case "rtp2d":
		return oracle.RankAround(at, core.RankTolerance{K: s.K, R: s.R}), nil
	case "ft-rp2d":
		return oracle.FractionKNNAround(at, s.K, tol), nil
	}
	return oracle.Guarantee{}, fmt.Errorf("protospec: unknown protocol %q", s.Protocol)
}

// Encode appends the spec to a wire payload. The field order is part of
// the wire format (internal/wire's version covers it; version 3 appended
// the spatial query point).
func (s Spec) Encode(w *snapshot.Writer) {
	w.String(s.Protocol)
	w.Float64(s.Lo)
	w.Float64(s.Hi)
	w.Varint(int64(s.K))
	w.Varint(int64(s.R))
	w.Float64(s.Q)
	w.Bool(s.Top)
	w.Float64(s.EpsPlus)
	w.Float64(s.EpsMinus)
	w.Float64(s.Width)
	w.String(s.Selection)
	w.Float64(s.QX)
	w.Float64(s.QY)
}

// Decode reads a spec written by Encode. Decoding is structural only —
// callers must still Validate against the partition size; errors surface
// through the Reader's sticky error.
func Decode(r *snapshot.Reader) Spec {
	var s Spec
	s.Protocol = r.String()
	s.Lo = r.Float64()
	s.Hi = r.Float64()
	s.K = int(r.Varint())
	s.R = int(r.Varint())
	s.Q = r.Float64()
	s.Top = r.Bool()
	s.EpsPlus = r.Float64()
	s.EpsMinus = r.Float64()
	s.Width = r.Float64()
	s.Selection = r.String()
	s.QX = r.Float64()
	s.QY = r.Float64()
	return s
}
