package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readSet reads a result-set file into workload → metric → values, keeping
// only untraced runs (end-to-end metrics never come from a traced run).
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 || rec.Result == nil {
			continue
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Result.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
		// A run that failed verification or lost operations can carry no
		// speed claim; it shows as a failed share above zero.
		share := float64(rec.Result.Failed) / float64(max(rec.Result.Attempted, 1))
		if !rec.Result.Correct {
			share = 1
		}
		set[rec.Workload]["failed_share"] = append(set[rec.Workload]["failed_share"], share)
	}
	return set, sc.Err()
}

// verdict judges set b against set a for one metric: how far b's median is
// on the worse side of a's, as a share of a's median, against the bound.
// When either set's own spread (interquartile range over median) exceeds
// the bound the runs cannot resolve a change of that size, and the metric
// is reported as unresolved — never as unchanged — unless every run of b
// reads better than every run of a. setup_s is judged on its median alone,
// as the acceptance driver does: a set-up lasts under a second and its
// spread says more about the host than about the code.
func verdict(m metricSpec, a, b []float64) (line string, ok bool) {
	if len(a) < 2 || len(b) < 2 {
		return "too few runs", false
	}
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	worse := (b2 - a2) / a2
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max((a3-a1)/a2, (b3-b1)/b2)
	line = fmt.Sprintf("a %.6g [%.6g, %.6g]  b %.6g [%.6g, %.6g]  worse by %+.2f%%  spread %.2f%%  bound %.0f%%",
		a2, a1, a3, b2, b1, b3, 100*worse, 100*spread, 100*m.Bound)
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if m.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case worse > m.Bound:
		return "FAIL        " + line, false
	case spread > m.Bound && !allBetter && m.Name != "setup_s":
		return "UNRESOLVED  " + line, false
	default:
		return "pass        " + line, true
	}
}

// compareSets prints, per workload × end-to-end metric, both sets' medians
// and quartiles and the verdict against the bounds in the benchmark file.
func compareSets(out io.Writer, benchFile, pathA, pathB string) error {
	spec, err := readBenchSpec(benchFile)
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	allOK := true
	for _, w := range spec.Workloads {
		fmt.Fprintf(out, "%s (a: %d runs, b: %d runs)\n", w.Name, len(a[w.Name]["setup_s"]), len(b[w.Name]["setup_s"]))
		for _, m := range spec.EndToEnd {
			line, ok := verdict(m, a[w.Name][m.Name], b[w.Name][m.Name])
			allOK = allOK && ok
			fmt.Fprintf(out, "  %-24s %s\n", m.Name, line)
		}
		fa, fb := a[w.Name]["failed_share"], b[w.Name]["failed_share"]
		if len(fa) > 0 && len(fb) > 0 && (slices.Max(fa) > 0 || slices.Max(fb) > 0) {
			allOK = false
			fmt.Fprintf(out, "  %-24s FAIL        worst failed share a %g, b %g (must be 0)\n", "failed_share", slices.Max(fa), slices.Max(fb))
		}
	}
	if !allOK {
		return fmt.Errorf("not every metric passed")
	}
	return nil
}
