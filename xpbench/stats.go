package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs (sorted in place) the way
// Python's statistics.quantiles computes its cut points with the default
// exclusive method: rank q·(n+1), interpolated between neighbours, and
// extrapolated from the outer pair when the rank falls outside [1, n].
// The repeat mode's quartiles are thus the ones the acceptance check
// computes; the median is the usual one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) < 2 {
		if len(xs) == 0 {
			return 0
		}
		return xs[0]
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)+1)
	j := max(1, min(int(h), len(xs)-1))
	return xs[j-1] + (h-float64(j))*(xs[j]-xs[j-1])
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// opCount counts one kind of operation.
type opCount struct {
	attempted, failed atomic.Int64
}

// ops holds the operation counts of a run, per kind.
type ops struct {
	match, write, webhook opCount
	mu                    sync.Mutex
	errors                []string
}

const maxLoggedErrors = 10

// fail counts a failed operation of kind c and keeps its first messages.
func (o *ops) fail(c *opCount, err error) {
	c.failed.Add(1)
	o.mu.Lock()
	if len(o.errors) < maxLoggedErrors {
		o.errors = append(o.errors, err.Error())
	}
	o.mu.Unlock()
}

// absorb adds the counts and messages of p.
func (o *ops) absorb(p *ops) {
	for _, k := range [][2]*opCount{{&o.match, &p.match}, {&o.write, &p.write}, {&o.webhook, &p.webhook}} {
		k[0].attempted.Add(k[1].attempted.Load())
		k[0].failed.Add(k[1].failed.Load())
	}
	o.mu.Lock()
	for _, e := range p.errors {
		if len(o.errors) < maxLoggedErrors {
			o.errors = append(o.errors, e)
		}
	}
	o.mu.Unlock()
}

func (o *ops) totals() (attempted, failed int64) {
	for _, c := range []*opCount{&o.match, &o.write, &o.webhook} {
		attempted += c.attempted.Load()
		failed += c.failed.Load()
	}
	return attempted, failed
}

func (o *ops) print(w io.Writer, workload string) {
	for _, k := range []struct {
		name string
		c    *opCount
	}{{"match", &o.match}, {"subscription_write", &o.write}, {"webhook_delivery", &o.webhook}} {
		fmt.Fprintf(w, "%s ops %-18s attempted=%d failed=%d\n", workload, k.name, k.c.attempted.Load(), k.c.failed.Load())
	}
	for _, e := range o.errors {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", workload, e)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// traceSpan is one traced interval. Spans of one document share Doc (-1 for
// spans not tied to a document); Parent is the enclosing span's ID.
type traceSpan struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Doc    int    `json:"doc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It keeps at most
// perName spans of each name (the first ones), so a long stage of
// microsecond calls does not grow without bound; dropped counts the
// rest.
type spanLog struct {
	epoch   time.Time
	perName int
	nextID  atomic.Int64

	mu      sync.Mutex
	spans   []traceSpan
	byName  map[string]int
	dropped int
}

func newSpanLog(perName int) *spanLog {
	return &spanLog{epoch: time.Now(), perName: perName, byName: map[string]int{}}
}

func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// add records a span that ran from start to end.
func (l *spanLog) add(id, parent int64, name string, doc int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byName[name] >= l.perName {
		l.dropped++
		return
	}
	l.byName[name]++
	l.spans = append(l.spans, traceSpan{
		ID: id, Parent: parent, Name: name, Doc: doc,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
}

// write stores the spans as one JSON object per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	return f.Close()
}
