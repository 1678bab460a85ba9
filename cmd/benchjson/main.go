// Command benchjson converts `go test -bench` output into a
// machine-readable benchmark trajectory file.
//
// It reads benchmark output on stdin, parses every benchmark line into
// {ns/op, bytes/op, allocs/op, custom metrics}, and emits one JSON
// document stamped with the host shape. The output name comes from -o
// (stdout without it); the Makefile's bench-json target supplies the
// file name:
//
//	go test -run xxx -bench . -benchmem . | go run ./cmd/benchjson -o bench_trajectory.json
//
// Nothing compares a recording against a threshold: the exact
// allocation budgets are the root package's TestWorkBudgets, and the
// host-clock ruler is `go run ./benchmark`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the custom b.ReportMetric values by unit
	// (sim_inj_per_sec, msgs, sim_us, MB/s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Host identifies the machine shape a recording was taken on, so
// single-core trajectory files are self-identifying next to multi-core
// ones.
type Host struct {
	GoMaxProcs int `json:"go_max_procs"`
	NumCPU     int `json:"num_cpu"`
}

// File is the emitted document shape.
type File struct {
	// Note describes how to regenerate the numbers.
	Note string `json:"note"`
	// Host is the recording machine's shape.
	Host *Host `json:"host,omitempty"`
	// Current is this run.
	Current map[string]*Entry `json:"current"`
}

func parse(r *bufio.Scanner) (map[string]*Entry, error) {
	out := map[string]*Entry{}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		// Strip the -P (GOMAXPROCS) suffix go appends for parallel runs.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := &Entry{}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e.Iterations = n
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
		out[name] = e
	}
	return out, r.Err()
}

func main() {
	outPath := flag.String("o", "", "output path (default stdout)")
	note := flag.String("note", "regenerate with `make bench-json`", "provenance note")
	flag.Parse()

	cur, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	host := Host{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	f := &File{
		Note:    *note,
		Host:    &host,
		Current: cur,
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
