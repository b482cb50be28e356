// Command xpbench is the repository's end-to-end benchmark. It runs a
// real xpfilterd server (internal/server) on a loopback port, with its
// webhook delivery queue posting to an in-process sink, and drives one
// workload in a closed loop from at most two client connections. Every
// verdict, fragment and webhook is checked against the workload
// generator's own record of what each document should match.
//
//	xpbench --workload news-route --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 instead runs each
// layer's public functions in process, prints the per-layer metrics and
// writes the spans to .bench_build/spans as JSON lines.
// --workload all runs every workload, each in its own process, and
// --repeat N runs one workload N times with consecutive seeds and
// prints each metric's median and interquartile range. The last line
// of standard output is always one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xpbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	conns    int
}

func run(args []string) error {
	var o options
	fs := flag.NewFlagSet("xpbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: news-route, pred-heavy, large-stream, sub-churn or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload generator")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed run in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer stages instead of the end-to-end loop")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's median and IQR")
	fs.IntVar(&o.conns, "connections", 0, "client connections of the closed loop; 0 takes the workload's own (two, one on large-stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.conns < 0 || o.conns > 16 {
		return errors.New("--connections must be from 0 to 16")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if o.workload == "all" {
		return runAll(o)
	}
	p, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.repeat > 0 {
		return runRepeat(o)
	}
	res, err := runOne(p, o)
	if err != nil {
		return err
	}
	return printResult(res)
}

// connections is the closed loop's client count: the --connections
// flag if set, else at most two and no more than the host has CPUs.
func connections(p params, o options) int {
	switch {
	case o.conns > 0:
		return o.conns
	case p.oneConn:
		return 1
	}
	return min(2, runtime.NumCPU())
}

func runOne(p params, o options) (*result, error) {
	c := generate(p, o.seed)
	dur := time.Duration(o.seconds) * time.Second
	res := &result{Metrics: map[string]metric{}}
	var counts *ops
	if o.trace == 1 {
		spans := newSpanLog(4000)
		m, oc, err := runTrace(c, connections(p, o), dur, spans)
		counts = oc
		if err != nil {
			return nil, err
		}
		res.Metrics = m
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-%d.jsonl", p.name, o.seed))
		if err := spans.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("%s spans %d kept, %d over the per-name cap, written to %s\n", p.name, len(spans.spans), spans.dropped, path)
	} else {
		e, oc, err := runE2E(c, connections(p, o), dur, setups, nil)
		counts = oc
		if err != nil {
			if oc != nil {
				oc.print(os.Stdout, p.name)
			}
			return nil, err
		}
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("docs_per_s", "1/s", float64(e.docs)/e.elapsed.Seconds())
		put("latency_p50_ms", "ms", e.p50)
		put("delivery_lag_p50_ms", "ms", e.lagP50)
		put("setup_s", "s", quantile(append([]float64(nil), e.setups...), .5))
		put("retained_heap_mb", "MB", e.heapMB)
		fmt.Printf("%s docs/s per window: %.0f  cpu %.3fs in the loop (%.1f us per doc)\n", p.name, e.windows, e.cpu.Seconds(), e.cpu.Seconds()*1e6/float64(e.docs))
		fmt.Printf("%s delivery: attempts=%d successes=%d retries=%d failures=%d sheds=%d settled in %.3fs\n", p.name,
			e.delivery.Attempts, e.delivery.Successes, e.delivery.Retries, e.delivery.Failures, e.delivery.Sheds, e.settle.Seconds())
		fmt.Printf("%s latency samples=%d p90_ms=%.4f p99_ms=%.4f  delivery lag samples=%d (sink connections %d)  docs=%d in %.3fs  client connections=%d  setups_s=%.3f\n",
			p.name, e.latencies, e.p90, e.p99, e.lags, e.sinkConns, e.docs, e.elapsed.Seconds(), connections(p, o), e.setups)
	}
	counts.print(os.Stdout, p.name)
	res.Attempted, res.Failed = counts.totals()
	res.Correct = res.Failed == 0
	return res, nil
}

func printResult(r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// child runs this program again with args and returns the result on its
// last output line; the child's other output is passed through.
func child(args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", l)
	}
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%v: last line: %w", args, err)
	}
	return &r, nil
}

func (o options) childArgs(workload string, seed int64) []string {
	return []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
		"--connections", strconv.Itoa(o.conns)}
}

// runAll runs every workload in its own process and ends with one
// result whose metrics are named <workload>.<metric>.
func runAll(o options) error {
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		r, err := child(o.childArgs(w.name, o.seed)...)
		if err != nil {
			return err
		}
		b, _ := json.Marshal(r)
		fmt.Printf("%s result %s\n", w.name, b)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	return printResult(total)
}

// runRepeat runs one workload o.repeat times, each in its own process
// with the next seed, and prints every metric's median and IQR.
func runRepeat(o options) error {
	values := map[string][]float64{}
	units := map[string]string{}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	var failShares []float64
	for i := 0; i < o.repeat; i++ {
		r, err := child(o.childArgs(o.workload, o.seed+int64(i))...)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		failShares = append(failShares, float64(r.Failed)/float64(r.Attempted))
		for k, v := range r.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s: %d runs, seeds %d..%d, %ds each\n", o.workload, o.repeat, o.seed, o.seed+int64(o.repeat)-1, o.seconds)
	fmt.Fprintf(w, "%-36s %-6s %12s %12s %12s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		q1, med, q3 := quantile(values[k], .25), quantile(values[k], .5), quantile(values[k], .75)
		fmt.Fprintf(w, "%-36s %-6s %12.4f %12.4f %12.4f %8.2f%%\n", k, units[k], q1, med, q3, 100*(q3-q1)/med)
		total.Metrics[k] = metric{med, units[k]}
	}
	fmt.Fprintf(w, "failed share per run: %v\n", failShares)
	if err := w.Flush(); err != nil {
		return err
	}
	return printResult(total)
}
