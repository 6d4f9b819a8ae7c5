package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host fingerprints the machine and build a result was measured on.
// Results compare only when everything but Commit agrees.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    benchWorkers(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the HEAD commit of the git checkout at dir, read from its .git
// directory (so nothing outside the checkout is read), or "unknown" when dir
// is not one.
func commit(dir string) string {
	gitDir := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref // detached HEAD: the commit itself
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sameHost reports why two fingerprints are not comparable, or "".
func sameHost(a, b host) string {
	a.Commit, b.Commit = "", ""
	if a == b {
		return ""
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return fmt.Sprintf("%s vs %s", ja, jb)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result as kept on disk: with the host and the inputs.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// writeRecord keeps r under dir/results for compare.
func writeRecord(dir string, r record) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// loadRecords reads a record file, or every *.json record in a directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}

// errHostMismatch refuses a comparison across different hosts.
var errHostMismatch = errors.New("results come from different hosts; no verdict")

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, per workload and end-to-end metric, the median of the
// base records against the median of the head records, and whether the
// change stays within the metric's bound. It refuses to give a verdict
// when any two records' hosts differ. It returns whether every metric is
// within bounds.
func compare(base, head []record, spec benchSpec, w io.Writer) (bool, error) {
	all := append(append([]record(nil), base...), head...)
	for _, r := range all[1:] {
		if why := sameHost(all[0].Host, r.Host); why != "" {
			return false, fmt.Errorf("%w: %s", errHostMismatch, why)
		}
	}
	medians := func(rs []record) map[string]map[string]float64 {
		vals := map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Trace != 0 {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for k, m := range r.Result.Metrics {
				vals[r.Workload][k] = append(vals[r.Workload][k], m.Value)
			}
		}
		out := map[string]map[string]float64{}
		for wl, ms := range vals {
			out[wl] = map[string]float64{}
			for k, v := range ms {
				out[wl][k] = median(v)
			}
		}
		return out
	}
	mb, mh := medians(base), medians(head)
	var wls []string
	for wl := range mb {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	ok := true
	fmt.Fprintf(w, "%-10s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	for _, wl := range wls {
		for _, e := range spec.EndToEnd {
			b, okb := mb[wl][e.Name]
			h, okh := mh[wl][e.Name]
			if !okb || !okh || b == 0 {
				continue
			}
			change := h/b - 1
			worse := change
			if e.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict, ok = "REGRESSED", false
			}
			fmt.Fprintf(w, "%-10s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wl, e.Name, b, h, 100*change, 100*e.Bound, verdict)
		}
	}
	return ok, nil
}
