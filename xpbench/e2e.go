package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamxpath/internal/delivery"
	"streamxpath/internal/server"
)

// measuredTenant is the tenant the timed loop drives.
const measuredTenant = "bench"

// hookReq is one match request whose webhooks the sink waits for.
type hookReq struct {
	sent   time.Time
	timed  bool // sent in the timed loop: its deliveries are lag samples
	spanID int64
	d      *doc
	want   []hit // webhook subscriptions the document matches
	got    []int
	bad    []bool // a delivery arrived with the wrong body
}

// sink is the in-process webhook receiver. It ties every delivery to
// its request through the stamp inside the fragment, checks the body
// against the generator's serialization, and counts arrivals.
type sink struct {
	path  string // only deliveries to this path are the measured tenant's
	spans *spanLog

	mu         sync.Mutex
	reqs       map[uint64]*hookReq
	expected   int
	arrived    int
	unexpected int
	lags       []time.Duration
	conns      atomic.Int64 // connections the delivery workers opened
}

func newSink(path string) *sink {
	return &sink{path: path, reqs: map[uint64]*hookReq{}}
}

func (s *sink) expect(seq uint64, r *hookReq) {
	r.got = make([]int, len(r.want))
	r.bad = make([]bool, len(r.want))
	s.mu.Lock()
	s.reqs[seq] = r
	s.expected += len(r.want)
	s.mu.Unlock()
}

func (s *sink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	now := time.Now()
	w.WriteHeader(http.StatusNoContent)
	if err != nil || r.URL.Path != s.path {
		return
	}
	seq, ok := parseStamp(body)
	id := r.Header.Get("X-Xpfilterd-Subscription")
	s.mu.Lock()
	rec := s.reqs[seq]
	at := -1
	if ok && rec != nil {
		for i, h := range rec.want {
			if subID(h.slot) == id {
				at = i
				break
			}
		}
	}
	if at < 0 {
		s.unexpected++
		s.mu.Unlock()
		return
	}
	s.arrived++
	rec.got[at]++
	if rec.timed {
		s.lags = append(s.lags, now.Sub(rec.sent))
	}
	s.mu.Unlock()
	if !bytes.Equal(body, rec.d.stampedFragment(rec.want[at].sp, seq)) {
		s.mu.Lock()
		rec.bad[at] = true
		s.mu.Unlock()
	}
	s.spans.add(s.spans.newID(), rec.spanID, "sink.receipt", rec.d.index, start, time.Now())
}

// settle waits until every expected delivery has arrived and the
// tenant's delivery queue is empty, or until the deadline.
func (s *sink) settle(outstanding func() int64, deadline time.Time) {
	for time.Now().Before(deadline) {
		s.mu.Lock()
		done := s.arrived >= s.expected
		s.mu.Unlock()
		if done && outstanding() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// account counts every expected delivery as a webhook operation; it
// fails unless it arrived exactly once with the expected body.
// Deliveries nobody expected count as failed operations too.
func (s *sink) account(o *ops) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for seq, r := range s.reqs {
		for i, h := range r.want {
			o.webhook.attempted.Add(1)
			switch {
			case r.got[i] != 1:
				o.fail(&o.webhook, fmt.Errorf("request %d: webhook of %s arrived %d times", seq, subID(h.slot), r.got[i]))
			case r.bad[i]:
				o.fail(&o.webhook, fmt.Errorf("request %d: webhook of %s has the wrong body", seq, subID(h.slot)))
			}
		}
	}
	for i := 0; i < s.unexpected; i++ {
		o.webhook.attempted.Add(1)
		o.fail(&o.webhook, errors.New("unexpected webhook delivery"))
	}
}

// chunkedBody hides the reader's type so net/http cannot learn the
// length and sends Transfer-Encoding: chunked.
type chunkedBody struct{ io.Reader }

// daemon is a running xpfilterd server with the webhook sink, and the
// client that drives it.
type daemon struct {
	c      *corpus
	srv    *server.Server
	base   string
	sinkLn net.Listener
	sinkHS *http.Server
	sink   *sink
	client *http.Client
	tr     *http.Transport
	errc   chan error

	oracle *oracle
	ops    ops
	seq    atomic.Uint64
	hooks  [][]hit // per document: matches of webhook subscriptions
	spans  *spanLog
	// opsDone counts the closed-loop operations handed out so far.
	opsDone int
	// timed is set while the timed loop runs.
	timed atomic.Bool
}

// daemonConfig is xpfilterd's configuration with every flag at its
// default, listening on an ephemeral loopback port.
func daemonConfig() (server.Config, error) {
	var cfg server.Config
	fs := flag.NewFlagSet("xpfilterd", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		return cfg, err
	}
	if err := cfg.Finish(); err != nil {
		return cfg, err
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.DrainGrace = 0
	return cfg, nil
}

func startDaemon(c *corpus, conns int, spans *spanLog) (*daemon, error) {
	cfg, err := daemonConfig()
	if err != nil {
		return nil, err
	}
	// The daemon logs every request; formatting stays in the cost, the
	// output goes nowhere.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	d := &daemon{c: c, srv: server.New(cfg, logger), oracle: newOracle(c), spans: spans, errc: make(chan error, 2)}
	if err := d.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { d.errc <- d.srv.Serve() }()
	d.base = "http://" + d.srv.Addr()

	d.sink = newSink("/hook/" + measuredTenant)
	d.sink.spans = spans
	if d.sinkLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		d.stop()
		return nil, err
	}
	d.sinkHS = &http.Server{Handler: d.sink, ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				d.sink.conns.Add(1)
			}
		}}
	go func() { d.errc <- d.sinkHS.Serve(d.sinkLn) }()

	d.tr = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	d.client = &http.Client{Transport: d.tr, Timeout: 2 * time.Minute}

	d.hooks = make([][]hit, len(c.docs))
	for i, want := range c.want {
		for _, h := range want {
			if c.subs[h.slot].webhook {
				d.hooks[i] = append(d.hooks[i], h)
			}
		}
	}
	return d, nil
}

// stop shuts the daemon down gracefully (draining in-flight requests
// and the delivery queue), then closes the sink, and waits for both
// servers. Idle client connections are closed first: the server counts
// a connection that never carried a request as active for five seconds.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.tr != nil {
		d.tr.CloseIdleConnections()
	}
	_ = d.srv.Shutdown(ctx)
	<-d.errc
	if d.sinkHS != nil {
		_ = d.sinkHS.Close()
		<-d.errc
	}
}

func (d *daemon) do(method, path string, body []byte, want int) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	return nil
}

func (d *daemon) subBody(tenant string, s *sub) []byte {
	env := map[string]any{"query": s.query(), "extract": s.extract}
	if s.webhook {
		env["webhook"] = map[string]string{"url": "http://" + d.sinkLn.Addr().String() + "/hook/" + tenant}
	}
	b, _ := json.Marshal(env)
	return b
}

func (d *daemon) putSub(tenant string, slot int, s *sub, want int) error {
	d.ops.write.attempted.Add(1)
	err := d.do(http.MethodPut, "/v1/tenants/"+tenant+"/subscriptions/"+subID(slot), d.subBody(tenant, s), want)
	if err != nil {
		d.ops.fail(&d.ops.write, err)
	}
	return err
}

func (d *daemon) deleteSub(tenant string, slot int) error {
	d.ops.write.attempted.Add(1)
	err := d.do(http.MethodDelete, "/v1/tenants/"+tenant+"/subscriptions/"+subID(slot), nil, http.StatusOK)
	if err != nil {
		d.ops.fail(&d.ops.write, err)
	}
	return err
}

// match sends document di to tenant, stamped with a fresh sequence
// number in the caller's buffer, and checks the verdict. It returns the
// request's latency and whether every check passed.
func (d *daemon) match(tenant string, di int, buf []byte) (time.Duration, bool) {
	doc := d.c.docs[di]
	buf = append(buf[:0], doc.xml...)
	seq := d.seq.Add(1)
	patchStamps(buf, doc.stamps, seq)
	snap, c0 := d.oracle.snapshot()
	spanID := d.spans.newID()
	if tenant == measuredTenant && len(d.hooks[di]) > 0 {
		d.sink.expect(seq, &hookReq{sent: time.Now(), timed: d.timed.Load(), spanID: spanID, d: doc, want: d.hooks[di]})
	}
	var body io.Reader = bytes.NewReader(buf)
	if doc.chunked {
		body = chunkedBody{body}
	}
	d.ops.match.attempted.Add(1)
	start := time.Now()
	resp, err := d.post(tenant, body)
	lat := time.Since(start)
	d.spans.add(spanID, 0, "client.request", di, start, start.Add(lat))
	if err == nil {
		if d.c.p.churnEvery > 0 {
			err = checkChurn(doc, buf, snap, d.oracle.touched(c0), resp)
		} else {
			err = checkExact(doc, buf, snap.defs, d.c.want[di], resp)
		}
	}
	if err == nil {
		err = checkStats(doc, resp)
	}
	if err != nil {
		d.ops.fail(&d.ops.match, fmt.Errorf("tenant %s: %w", tenant, err))
		return lat, false
	}
	return lat, true
}

// post sends one document and reads the whole response.
func (d *daemon) post(tenant string, body io.Reader) (*matchResp, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/tenants/"+tenant+"/match", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("match: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r matchResp
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("match: decoding response: %w", err)
	}
	return &r, nil
}

// setupTenant creates tenant, registers every subscription over HTTP in
// registration order and waits for the first verdict (which pays the
// cold compile). It returns the elapsed time. The first document is the
// smallest one with the queries' root, whose size is the same under
// every seed.
func (d *daemon) setupTenant(tenant string) (time.Duration, error) {
	first := d.c.smallestDoc()
	buf := make([]byte, 0, len(d.c.docs[first].xml))
	start := time.Now()
	if err := d.do(http.MethodPut, "/v1/tenants/"+tenant, nil, http.StatusCreated); err != nil {
		return 0, err
	}
	for slot := range d.c.subs {
		if err := d.putSub(tenant, slot, &d.c.subs[slot], http.StatusCreated); err != nil {
			return 0, err
		}
	}
	if _, ok := d.match(tenant, first, buf); !ok {
		return 0, fmt.Errorf("tenant %s: first verdict failed its check", tenant)
	}
	return time.Since(start), nil
}

// dispatcher hands out operation indices to the client connections. A
// run stops only at a round boundary, after at least one round, so every
// run attempts whole rounds of the same operations.
type dispatcher struct {
	mu       sync.Mutex
	deadline time.Time
	roundLen int
	first    int // the first index handed out
	next     int
	stopAt   int
}

func (p *dispatcher) take() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopAt < 0 && p.next > p.first && p.next%p.roundLen == 0 && time.Now().After(p.deadline) {
		p.stopAt = p.next
	}
	if p.stopAt >= 0 && p.next >= p.stopAt {
		return 0, false
	}
	i := p.next
	p.next++
	return i, true
}

// churn performs churn write k on the measured tenant under the
// oracle's write lock, so writes reach the server in log order.
func (d *daemon) churn(k int) {
	slot, def, replace := d.c.churnWrite(k)
	o := d.oracle
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	if replace {
		o.begin(writeOp{slot, &def})
		_ = d.putSub(measuredTenant, slot, &def, http.StatusOK)
		o.commit()
		return
	}
	o.begin(writeOp{slot, nil})
	_ = d.deleteSub(measuredTenant, slot)
	o.commit()
	o.begin(writeOp{slot, &def})
	_ = d.putSub(measuredTenant, slot, &def, http.StatusCreated)
	o.commit()
}

// completion is one document given a verdict: when, from the start of
// the timed loop, and the request's latency if it passed its checks.
type completion struct {
	at, lat time.Duration
	ok      bool
}

// loop drives the measured tenant in a closed loop from conns
// connections until the deadline, then to the end of the round, and
// returns every document's completion and the elapsed time.
func (d *daemon) loop(conns int, dur time.Duration) ([]completion, time.Duration) {
	p := d.c.p
	roundLen := p.docs
	if p.churnEvery > 0 {
		roundLen += p.docs / p.churnEvery
	}
	// Operation indices continue across calls, so a later loop's churn
	// writes are new ones rather than repeats of the warm-up round's.
	disp := &dispatcher{roundLen: roundLen, stopAt: -1, first: d.opsDone, next: d.opsDone}
	defer func() { d.opsDone = disp.next }()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done []completion
	)
	start := time.Now()
	disp.deadline = start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []completion
			buf := make([]byte, 0, 1<<20)
			for {
				i, ok := disp.take()
				if !ok {
					break
				}
				round, pos := i/roundLen, i%roundLen
				di := pos
				if p.churnEvery > 0 {
					block, r := pos/(p.churnEvery+1), pos%(p.churnEvery+1)
					if r == p.churnEvery {
						d.churn(round*(p.docs/p.churnEvery) + block)
						continue
					}
					di = block*p.churnEvery + r
				}
				lat, ok := d.match(measuredTenant, di, buf)
				local = append(local, completion{time.Since(start), lat, ok})
			}
			mu.Lock()
			done = append(done, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return done, time.Since(start)
}

// windowRates splits the run's completions, in time order, into one
// window per whole second of the run, each with the same number of
// documents, and returns each window's rate: its documents over the time
// since the previous window ended. They show how the host's speed moved
// during the run.
func windowRates(done []completion, elapsed time.Duration) []float64 {
	sort.Slice(done, func(i, j int) bool { return done[i].at < done[j].at })
	n := max(1, int(elapsed/time.Second))
	var rates []float64
	var prev time.Duration
	for w := 0; w < n; w++ {
		win := done[w*len(done)/n : (w+1)*len(done)/n]
		if len(win) == 0 {
			continue
		}
		end := win[len(win)-1].at
		rates = append(rates, float64(len(win))/(end-prev).Seconds())
		prev = end
	}
	return rates
}

// liveHeap is the Go heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// e2eResult is what one untraced run measures. Times are in ms unless
// named otherwise.
type e2eResult struct {
	docs            int
	elapsed         time.Duration
	latencies, lags int // sample counts
	p50, p90, p99   float64
	lagP50          float64
	setups          []float64 // s
	heapMB          float64
	sinkConns       int64
	windows         []float64 // documents per second in each whole second of the run
	settle          time.Duration
	delivery        delivery.Stats
	cpu             time.Duration // process CPU time spent in the timed loop
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runE2E runs one workload against a real daemon: set-up rounds, the
// timed closed loop, the delivery settle, and the retained-heap reading.
func runE2E(c *corpus, conns int, dur time.Duration, setups int, spans *spanLog) (*e2eResult, *ops, error) {
	d, err := startDaemon(c, conns, spans)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	res := &e2eResult{}
	base := liveHeap()
	for i := 0; i < setups; i++ {
		tenant := measuredTenant
		if i < setups-1 {
			tenant = fmt.Sprintf("setup-%d", i)
		}
		// Each set-up starts from a collected heap, so the garbage of the
		// one before does not land a collection in this one's timing.
		runtime.GC()
		took, err := d.setupTenant(tenant)
		if err != nil {
			return nil, &d.ops, fmt.Errorf("set-up of %s: %w", tenant, err)
		}
		res.setups = append(res.setups, took.Seconds())
		if tenant != measuredTenant {
			if err := d.do(http.MethodDelete, "/v1/tenants/"+tenant, nil, http.StatusOK); err != nil {
				return nil, &d.ops, err
			}
		}
	}

	// One untimed round fills the engines' lazily built state and the
	// connection pools, and a collection clears the set-up's garbage, so
	// the timed loop starts warm.
	d.loop(conns, 0)
	runtime.GC()
	cpu0 := cpuTime()
	d.timed.Store(true)
	done, elapsed := d.loop(conns, dur)
	d.timed.Store(false)
	res.cpu = cpuTime() - cpu0
	res.docs, res.elapsed = len(done), elapsed
	res.windows = windowRates(done, elapsed)
	var lat []float64
	for _, c := range done {
		if c.ok {
			lat = append(lat, float64(c.lat)/float64(time.Millisecond))
		}
	}
	res.latencies = len(lat)
	res.p50, res.p90, res.p99 = quantile(lat, .5), quantile(lat, .9), quantile(lat, .99)

	mgr := d.srv.Registry().Delivery()
	settleStart := time.Now()
	d.sink.settle(func() int64 { return mgr.Stats(measuredTenant).Outstanding }, time.Now().Add(60*time.Second))
	res.settle = time.Since(settleStart)
	res.delivery = mgr.Stats(measuredTenant)
	d.sink.account(&d.ops)
	d.sink.mu.Lock()
	res.lags = len(d.sink.lags)
	res.lagP50 = quantile(durationsMS(d.sink.lags), .5)
	res.sinkConns = d.sink.conns.Load()
	// The client's records are not the daemon's heap.
	d.sink.reqs, d.sink.lags = nil, nil
	d.sink.mu.Unlock()
	res.heapMB = float64(int64(liveHeap())-int64(base)) / 1e6
	return res, &d.ops, nil
}
