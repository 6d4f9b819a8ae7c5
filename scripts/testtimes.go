//go:build ignore

// Testtimes reads `go test -json` output on stdin and prints each package's
// elapsed wall time, slowest first, the wall time from the first event to
// the last, and the ten slowest top-level tests. It exits nonzero if any
// package or test failed. Run it through `make test-times`:
//
//	go test -count=1 -json ./... | go run scripts/testtimes.go
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// event is the subset of a test2json record this tool reads.
type event struct {
	Time    time.Time
	Action  string
	Package string
	Test    string
	Elapsed float64
}

type timing struct {
	name    string
	elapsed float64
}

func main() {
	var pkgs, tests []timing
	failed := 0
	var first, last time.Time
	dec := json.NewDecoder(bufio.NewReader(os.Stdin))
	for {
		var e event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "testtimes:", err)
			os.Exit(2)
		}
		if first.IsZero() {
			first = e.Time
		}
		last = e.Time
		if e.Action != "pass" && e.Action != "fail" {
			continue
		}
		if e.Action == "fail" {
			failed++
		}
		switch {
		case e.Test == "":
			pkgs = append(pkgs, timing{e.Package, e.Elapsed})
		case !strings.Contains(e.Test, "/"): // a subtest's time is in its parent's
			tests = append(tests, timing{e.Package + " " + e.Test, e.Elapsed})
		}
	}
	bySlowest := func(ts []timing) {
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].elapsed > ts[j].elapsed })
	}
	bySlowest(pkgs)
	bySlowest(tests)
	total := 0.0
	fmt.Println("package elapsed (s):")
	for _, p := range pkgs {
		total += p.elapsed
		fmt.Printf("%8.2f  %s\n", p.elapsed, p.name)
	}
	fmt.Printf("%8.2f  sum over %d packages\n", total, len(pkgs))
	fmt.Printf("%8.2f  wall, first event to last\n", last.Sub(first).Seconds())
	fmt.Println("slowest tests (s):")
	for _, t := range tests[:min(10, len(tests))] {
		fmt.Printf("%8.2f  %s\n", t.elapsed, t.name)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "testtimes: %d failures\n", failed)
		os.Exit(1)
	}
}
