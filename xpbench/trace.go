package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"streamxpath"
	"streamxpath/internal/delivery"
	"streamxpath/internal/sax"
	"streamxpath/internal/server"
	"streamxpath/internal/symtab"
)

// layer is one layer of the stack as the traced run drives it: a call
// into the layer's public functions for document i. check is true on the
// untimed warm-up pass, where the call also checks its outputs.
type layer struct {
	name string
	call func(i int, check bool) error
	per  [][]time.Duration // per document index, one timed call per pass
}

// us is the layer's median time for document i in microseconds; the
// median keeps a collection or a burst of host noise in one pass out.
func (l *layer) us(i int) float64 {
	return quantile(durationsMS(l.per[i]), .5) * 1e3
}

// selfUS is the layer's self time: for each document, the median over
// the passes of this layer's call minus the call that the layer below
// it made on the same document in the same pass, averaged over the
// corpus. The two calls of a pair ran moments apart, so a drift of the
// host's speed between them is small against the difference.
func (l *layer) selfUS(below func(i int) *layer) float64 {
	sum := 0.0
	for i, calls := range l.per {
		b := below(i).per[i]
		diffs := make([]float64, len(calls))
		for p, d := range calls {
			diffs[p] = float64(d-b[p]) / 1e3
		}
		sum += quantile(diffs, .5)
	}
	return sum / float64(len(l.per))
}

// mbPerS is the layer's throughput in document MB (10^6 bytes) per
// second, from each document's median time.
func (l *layer) mbPerS(docs []*doc) float64 {
	var bytes, us float64
	for i, d := range docs {
		bytes += float64(len(d.xml))
		us += l.us(i)
	}
	return bytes / us
}

// tracer runs the layers of one workload and keeps their spans.
type tracer struct {
	c     *corpus
	spans *spanLog
	ops   *ops
}

// interleave runs one untimed checking pass of every layer, then whole
// passes over the corpus until budget has elapsed. A pass runs every
// layer on one document, one call each and back to back, before it
// moves on to the next document: the host's speed drifts by tens of
// percent within seconds, and a layer's self time is a difference with
// the layer below it on the same document. The order of the layers
// flips from one document to the next and from one pass to the next, so
// neither call of a pair always finds the caches the other one warmed.
// Each call is a span under its document's chain span.
func (t *tracer) interleave(budget time.Duration, layers []*layer) error {
	for _, l := range layers {
		l.per = make([][]time.Duration, len(t.c.docs))
		for i := range t.c.docs {
			if err := l.call(i, true); err != nil {
				return fmt.Errorf("%s: doc %d: %w", l.name, i, err)
			}
		}
	}
	runtime.GC()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for i := range t.c.docs {
			chainID := t.spans.newID()
			cs := time.Now()
			for k := range layers {
				l := layers[k]
				if (pass+i)%2 == 1 {
					l = layers[len(layers)-1-k]
				}
				s := time.Now()
				if err := l.call(i, false); err != nil {
					return fmt.Errorf("%s: doc %d: %w", l.name, i, err)
				}
				e := time.Now()
				l.per[i] = append(l.per[i], e.Sub(s))
				t.spans.add(t.spans.newID(), chainID, l.name, i, s, e)
			}
			t.spans.add(chainID, 0, "chain", i, cs, time.Now())
		}
	}
	return nil
}

// allocsPerDoc counts the heap allocations of one pass of call over the
// corpus, per document.
func (t *tracer) allocsPerDoc(call func(i int, check bool) error) (float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range t.c.docs {
		if err := call(i, false); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(t.c.docs)), nil
}

// checkIDs compares verdicts with the generator's expectation and
// counts the call as a match operation; a mismatch is a failed one.
func (t *tracer) checkIDs(i int, got []string) {
	t.ops.match.attempted.Add(1)
	want := t.c.want[i]
	if len(got) != len(want) {
		t.ops.fail(&t.ops.match, fmt.Errorf("doc %d: %d verdicts, want %d", i, len(got), len(want)))
		return
	}
	for j, h := range want {
		if got[j] != subID(h.slot) {
			t.ops.fail(&t.ops.match, fmt.Errorf("doc %d: verdict %d is %s, want %s", i, j, got[j], subID(h.slot)))
			return
		}
	}
}

// adder is the registration surface FilterSet and AdaptiveFilterSet
// share.
type adder interface {
	Add(id, q string) error
	AddExtract(id, q string) error
}

func register(set adder, subs []sub) error {
	for slot := range subs {
		if err := addSub(set, slot, &subs[slot]); err != nil {
			return err
		}
	}
	return nil
}

func addSub(set adder, slot int, s *sub) error {
	add := set.Add
	if s.extract {
		add = set.AddExtract
	}
	if err := add(subID(slot), s.query()); err != nil {
		return fmt.Errorf("registering %s: %w", subID(slot), err)
	}
	return nil
}

// Shares of the traced run's time.
const (
	layersShare    = .55
	recompileShare = .06
	deliveryShare  = .09
	e2eShare       = .15
)

// runTrace measures every layer of one workload in process, then the
// delivery queue alone, then a short traced end-to-end loop, and returns
// the per-layer metrics.
func runTrace(c *corpus, conns int, total time.Duration, spans *spanLog) (map[string]metric, *ops, error) {
	t := &tracer{c: c, spans: spans, ops: &ops{}}
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	workers := runtime.GOMAXPROCS(0)

	// Cold compile: the first match after registering the whole set.
	var compiles []time.Duration
	for r := 0; r < 3; r++ {
		fs := streamxpath.NewFilterSet()
		if err := register(fs, c.subs); err != nil {
			return nil, t.ops, err
		}
		s := time.Now()
		if _, err := fs.MatchBytes(c.docs[0].xml); err != nil {
			return nil, t.ops, err
		}
		compiles = append(compiles, time.Since(s))
		spans.add(spans.newID(), 0, "engine.compile", 0, s, s.Add(compiles[r]))
	}
	put("engine.compile_ms", "ms", quantile(durationsMS(compiles), .5))

	tok := sax.NewTokenizerBytes(nil, symtab.New())
	stok := sax.NewStreamTokenizer(symtab.New())
	fs := streamxpath.NewFilterSet()
	as := streamxpath.NewAdaptiveFilterSet(workers)
	defer as.Close()
	reg := server.NewRegistry(server.TenantConfig{Workers: workers}, nil, nil)
	defer reg.Close()
	ten, err := reg.Create("t", server.TenantConfig{})
	if err != nil {
		return nil, t.ops, err
	}
	if err := register(fs, c.subs); err != nil {
		return nil, t.ops, err
	}
	if err := register(as, c.subs); err != nil {
		return nil, t.ops, err
	}
	for slot := range c.subs {
		s := &c.subs[slot]
		if _, err := ten.PutSubscription(subID(slot), s.query(), s.extract, nil); err != nil {
			return nil, t.ops, err
		}
	}
	cfg, err := daemonConfig()
	if err != nil {
		return nil, t.ops, err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	hsrv := server.New(cfg, logger)
	defer hsrv.Registry().Close()
	h := hsrv.Handler()
	for slot := range c.subs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/t/subscriptions/"+subID(slot), bytes.NewReader(plainSubBody(&c.subs[slot]))))
		if rec.Code != http.StatusCreated {
			return nil, t.ops, fmt.Errorf("handler PUT %s: status %d", subID(slot), rec.Code)
		}
	}
	netc, stopNet, err := t.netServer(cfg, logger)
	if err != nil {
		return nil, t.ops, err
	}
	defer stopNet()

	events := 0
	var peak, bits int
	var ratio float64
	var consumed, size int64
	sharded := 0
	body := func(d *doc) io.Reader {
		if d.chunked {
			return chunkedBody{bytes.NewReader(d.xml)}
		}
		return bytes.NewReader(d.xml)
	}
	tokL := &layer{name: "sax.tokenize", call: func(i int, check bool) error {
		tok.Reset(c.docs[i].xml)
		for {
			_, err := tok.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if check {
				events++
			}
		}
	}}
	var ss sax.StreamStats
	noop := func(sax.ByteEvent) error { return nil }
	stokL := &layer{name: "sax.stream_tokenize", call: func(i int, _ bool) error {
		stok.Reset()
		_, err := stok.Drive(bytes.NewReader(c.docs[i].xml), sax.DefaultChunkSize, &ss, noop, nil, nil)
		return err
	}}
	matchL := &layer{name: "engine.match", call: func(i int, check bool) error {
		ids, err := fs.MatchBytes(c.docs[i].xml)
		if err != nil || !check {
			return err
		}
		ms := fs.MemStats()
		peak = max(peak, ms.PeakLiveTuples)
		bits = max(bits, ms.EstimatedBits)
		ratio = max(ratio, ms.OptimalityRatio)
		t.checkIDs(i, ids)
		return nil
	}}
	capL := &layer{name: "engine.capture", call: func(i int, check bool) error {
		r, err := fs.MatchBytesResult(c.docs[i].xml)
		if err == nil && check {
			t.checkIDs(i, r.MatchedIDs)
		}
		return err
	}}
	readL := &layer{name: "streamxpath.reader", call: func(i int, check bool) error {
		r, err := fs.MatchReaderResult(bytes.NewReader(c.docs[i].xml))
		if err == nil && check {
			consumed += r.ReaderStats.BytesConsumed
			size += int64(len(c.docs[i].xml))
			t.checkIDs(i, r.MatchedIDs)
		}
		return err
	}}
	parL := &layer{name: "parallel", call: func(i int, check bool) error {
		d := c.docs[i]
		var r streamxpath.MatchResult
		var err error
		if d.chunked {
			r, err = as.MatchReaderResult(bytes.NewReader(d.xml))
		} else {
			r, err = as.MatchBytesResult(d.xml)
		}
		if err == nil && check {
			if as.LastMode() == "shard" {
				sharded++
			}
			t.checkIDs(i, r.MatchedIDs)
		}
		return err
	}}
	regL := &layer{name: "server.registry", call: func(i int, check bool) error {
		d := c.docs[i]
		var r server.MatchResult
		var err error
		if d.chunked {
			r, err = ten.MatchStream(bytes.NewReader(d.xml))
		} else {
			r, err = ten.MatchBuffered(d.xml)
		}
		if err == nil && check {
			t.checkIDs(i, r.Matched)
		}
		return err
	}}
	handL := &layer{name: "server.handler", call: func(i int, check bool) error {
		d := c.docs[i]
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/t/match", body(d))
		if d.chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if check {
			var r matchResp
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				return err
			}
			t.checkIDs(i, r.Matched)
		}
		return nil
	}}
	netL := &layer{name: "server.net", call: func(i int, check bool) error {
		r, err := netc.post("t", body(c.docs[i]))
		if err == nil && check {
			t.checkIDs(i, r.Matched)
		}
		return err
	}}
	if err := t.interleave(share(layersShare), []*layer{tokL, stokL, matchL, capL, readL, parL, regL, handL, netL}); err != nil {
		return nil, t.ops, err
	}
	// The base a server-side route builds on: the whole-buffer result for
	// buffered documents, the reader result for chunked ones.
	base := func(i int) *layer {
		if c.docs[i].chunked {
			return readL
		}
		return capL
	}
	of := func(l *layer) func(int) *layer { return func(int) *layer { return l } }
	put("sax.tokenize_mb_per_s", "MB/s", tokL.mbPerS(c.docs))
	put("sax.stream_tokenize_mb_per_s", "MB/s", stokL.mbPerS(c.docs))
	put("sax.events_per_doc", "count", float64(events)/float64(len(c.docs)))
	put("engine.match_us_per_doc", "us", matchL.selfUS(of(tokL)))
	put("engine.peak_live_tuples", "count", float64(peak))
	put("engine.state_bits", "bits", float64(bits))
	put("engine.optimality_ratio", "ratio", ratio)
	put("engine.capture_us_per_doc", "us", capL.selfUS(of(matchL)))
	put("streamxpath.consumed_fraction", "ratio", float64(consumed)/float64(size))
	put("parallel.match_us_per_doc", "us", parL.selfUS(base))
	put("parallel.sharded_share", "ratio", float64(sharded)/float64(len(c.docs)))
	put("server.registry_us_per_doc", "us", regL.selfUS(of(parL)))
	put("server.handler_us_per_doc", "us", handL.selfUS(of(regL)))
	put("server.net_us_per_doc", "us", netL.selfUS(of(handL)))

	resultAllocs, err := t.allocsPerDoc(capL.call)
	if err != nil {
		return nil, t.ops, err
	}
	regAllocs, err := t.allocsPerDoc(regL.call)
	if err != nil {
		return nil, t.ops, err
	}
	handAllocs, err := t.allocsPerDoc(handL.call)
	if err != nil {
		return nil, t.ops, err
	}
	put("streamxpath.result_allocs_per_doc", "count", resultAllocs)
	put("server.handler_allocs_per_doc", "count", handAllocs-regAllocs)

	// One write and the next match on the warm set. The writes move
	// slots to the end of fs's order, so nothing uses fs after this.
	var recompiles []time.Duration
	rs := time.Now()
	for k := 0; len(recompiles) < 3 || time.Since(rs) < share(recompileShare); k++ {
		slot := c.churnable[k%len(c.churnable)]
		s := time.Now()
		fs.Remove(subID(slot))
		if err := addSub(fs, slot, &c.subs[slot]); err != nil {
			return nil, t.ops, err
		}
		if _, err := fs.MatchBytes(c.docs[0].xml); err != nil {
			return nil, t.ops, err
		}
		recompiles = append(recompiles, time.Since(s))
		spans.add(spans.newID(), 0, "engine.recompile", 0, s, s.Add(recompiles[len(recompiles)-1]))
	}
	put("engine.recompile_ms", "ms", quantile(durationsMS(recompiles), .5))

	if err := t.deliveryStage(share(deliveryShare), put); err != nil {
		return nil, t.ops, err
	}

	// The end-to-end loop again, traced from outside: client request
	// and sink receipt spans, so its latency against the untraced run's
	// is the tracing overhead.
	e2e, e2eOps, err := runE2E(c, conns, share(e2eShare), 1, spans)
	if e2eOps != nil {
		t.ops.absorb(e2eOps)
	}
	if err != nil {
		return nil, t.ops, err
	}
	put("trace.request_p50_ms", "ms", e2e.p50)
	return out, t.ops, nil
}

// plainSubBody is a subscription's PUT body without a webhook.
func plainSubBody(s *sub) []byte {
	b, _ := json.Marshal(map[string]any{"query": s.query(), "extract": s.extract})
	return b
}

// netServer serves a daemon on a loopback listener with the workload's
// subscriptions (no webhooks) and returns a client holding one
// keep-alive connection to it, and a function that stops both.
func (t *tracer) netServer(cfg server.Config, logger *slog.Logger) (*daemon, func(), error) {
	srv := server.New(cfg, logger)
	if err := srv.Listen(); err != nil {
		return nil, nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	stop := func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-errc
	}
	d := &daemon{c: t.c, base: "http://" + srv.Addr(), client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
	for slot := range t.c.subs {
		if err := d.do(http.MethodPut, "/v1/tenants/t/subscriptions/"+subID(slot), plainSubBody(&t.c.subs[slot]), http.StatusCreated); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return d, stop, nil
}

// deliveryStage enqueues each document's webhook fragments on a
// delivery manager with the daemon's defaults, posting to a loopback
// sink, and waits for the document's deliveries before the next one.
func (t *tracer) deliveryStage(budget time.Duration, put func(name, unit string, v float64)) error {
	c := t.c
	var (
		mu      sync.Mutex
		sent    = map[uint64]time.Time{}
		lags    []time.Duration
		arrived = make(chan struct{}, 1024) // one slot per in-flight delivery; a document has fewer
		bad     int
		timed   bool
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		now := time.Now()
		w.WriteHeader(http.StatusNoContent)
		seq, ok := parseStamp(body)
		mu.Lock()
		s, known := sent[seq]
		if err != nil || !ok || !known {
			bad++
		} else if timed {
			lags = append(lags, now.Sub(s))
		}
		mu.Unlock()
		arrived <- struct{}{}
	})}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-errc
	}()
	mgr := delivery.NewManager(delivery.Config{})
	defer mgr.Close()
	hook := delivery.Webhook{URL: "http://" + ln.Addr().String() + "/hook"}
	hooks := make([][]hit, len(c.docs))
	for i, want := range c.want {
		for _, h := range want {
			if c.subs[h.slot].webhook {
				hooks[i] = append(hooks[i], h)
			}
		}
	}
	var seq uint64
	dl := &layer{name: "delivery", call: func(i int, check bool) error {
		if !check && !timed {
			mu.Lock()
			timed = true
			mu.Unlock()
		}
		d := c.docs[i]
		for _, h := range hooks[i] {
			seq++
			payload := d.stampedFragment(h.sp, seq)
			mu.Lock()
			sent[seq] = time.Now()
			mu.Unlock()
			if !mgr.EnqueueRaw("t", subID(h.slot), hook, "application/xml", payload) {
				return errors.New("delivery queue refused a record")
			}
		}
		timeout := time.After(30 * time.Second)
		for range hooks[i] {
			select {
			case <-arrived:
			case <-timeout:
				return errors.New("deliveries did not arrive within 30s")
			}
		}
		return nil
	}}
	if err := t.interleave(budget, []*layer{dl}); err != nil {
		return err
	}
	// The sink counts a delivery when its body arrives, a moment before
	// the worker records the success.
	stats := mgr.Stats("t")
	for deadline := time.Now().Add(10 * time.Second); stats.Outstanding > 0 && time.Now().Before(deadline); stats = mgr.Stats("t") {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if bad > 0 {
		return fmt.Errorf("delivery stage: %d deliveries with an unknown stamp", bad)
	}
	var busy time.Duration
	delivered := 0
	for i, calls := range dl.per {
		for _, d := range calls {
			busy += d
		}
		delivered += len(calls) * len(hooks[i])
	}
	put("delivery.lag_p50_ms", "ms", quantile(durationsMS(lags), .5))
	put("delivery.deliveries_per_s", "1/s", float64(delivered)/busy.Seconds())
	put("delivery.attempts_per_success", "ratio", float64(stats.Attempts)/float64(stats.Successes))
	return nil
}
