package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// results is the file the all-workloads mode writes and -compare reads:
// every run's report, samples included.
type results struct {
	Env     hostEnv  `json:"env"`
	Seconds float64  `json:"seconds"`
	Runs    []report `json:"runs"`
}

// runAll runs every workload runs times, each run in its own child
// process, one after another, and collects the reports the children
// print. Seeds go seed, seed+1, ... within a workload.
func runAll(seed int64, seconds float64, traced bool, runs int, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := results{Env: currentEnv(), Seconds: seconds}
	trace := "0"
	if traced {
		trace = "1"
	}
	status := 0
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stdout, cmd.Stderr = &buf, stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			var rep report
			if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &rep) != nil {
				fmt.Fprintf(stderr, "bench: %s: no report (%v)\n", w.name, runErr)
				status = 1
				continue
			}
			fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-2], "\n"))
			if runErr != nil || !rep.correct() {
				status = 1
			}
			res.Runs = append(res.Runs, rep)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// definition is the part of BENCHMARK.json -compare needs.
type definition struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, the median
// and quartiles of the parent's runs (a) and the change's runs (b), and
// a verdict.
func compareFiles(defPath, aPath, bPath string, w io.Writer) error {
	var def definition
	var a, b results
	for _, f := range []struct {
		path string
		v    any
	}{{defPath, &def}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-16s %-14s %30s %30s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, wl := range workloads {
		for _, m := range def.EndToEnd {
			va, vb := samplesOf(a, wl.name, m.Name), samplesOf(b, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			fmt.Fprintf(w, "%-16s %-14s %12.6g [%-7.4g %7.4g] %12.6g [%-7.4g %7.4g]  %s\n",
				wl.name, m.Name, ma, qa1, qa3, mb, qb1, qb3, verdict(va, vb, m.Bound, m.Better == "higher"))
		}
	}
	return nil
}

// samplesOf collects one end-to-end metric of one workload over the
// untraced runs of a results file, in run order.
func samplesOf(r results, workload, name string) []float64 {
	var v []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload && !run.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict judges the change's runs b against the parent's runs a, paired
// by position:
//   - unresolved: either side's quartile spread, as a share of its
//     median, exceeds the bound, unless every change run beats every
//     parent run (then better);
//   - better: with at least ten pairs, the change wins at least nine in
//     ten of them and its median beats the parent's by more than the
//     parent's quartile spread; with fewer, every change run beats every
//     parent run and the median gain exceeds the bound;
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	rel := func(d, base float64) float64 {
		if base == 0 {
			if d == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return d / math.Abs(base)
	}
	if math.Max(rel(qa3-qa1, ma), rel(qb3-qb1, mb)) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	gain := rel(sign*(mb-ma), ma)
	if n := min(len(a), len(b)); n >= 10 {
		wins := 0
		for i := 0; i < n; i++ {
			if sign*(b[i]-a[i]) > 0 {
				wins++
			}
		}
		if 10*wins >= 9*n && sign*(mb-ma) > qa3-qa1 {
			return "better"
		}
	} else if allBetter && gain > bound {
		return "better"
	}
	if -gain > bound {
		return "worse"
	}
	return "unchanged"
}
