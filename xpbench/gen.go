package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// stampWidth is the width of the decimal sequence stamp every
// webhook-bearing element carries in its s attribute. The generator
// writes zeros; the client patches the request's sequence number in
// place before sending, so offsets never move and the stamp travels
// inside each extracted fragment to the webhook sink.
const stampWidth = 10

// params is one workload's input make-up.
type params struct {
	name string

	catalog bool // catalog documents and predshared subscriptions

	docs               int // corpus size (one round of the closed loop)
	minItems, maxItems int // items per document
	topics             int // topic vocabulary the documents draw from

	subs      int     // standing subscriptions
	hooks     int     // subscriptions carrying a webhook
	rare      int     // subscriptions on topics no document contains
	predShare float64 // share of non-webhook news subscriptions with a predicate

	chunkedEvery int // every chunkedEvery-th document is sent chunked (1 = all)
	foreignEvery int // every foreignEvery-th document has a foreign root (0 = none)
	churnEvery   int // one subscription write per churnEvery documents (0 = none)

	// oneConn limits the closed loop to one client connection. Two
	// documents in flight on the event-sharded engine race on its reused
	// verdict buffer (Sharded.merge returns s.ids after the engine lock
	// is released), which makes verdicts and webhooks of one document
	// show up on another now and then: a failure that no run can count
	// the same way twice. --connections 2 shows it.
	oneConn bool
}

// setups is how many times a run sets a tenant up from nothing;
// setup_s is their median.
const setups = 15

// workloads are the benchmark's traffic mixes; README.md gives the
// reason for each and the measurements behind the webhook shares and
// the single connection of large-stream.
var workloads = []params{
	{
		name: "news-route",
		docs: 256, minItems: 10, maxItems: 30, topics: 1000,
		subs: 3000, hooks: 50, predShare: 0.2,
		chunkedEvery: 4,
	},
	{
		name:    "pred-heavy",
		catalog: true,
		docs:    256, minItems: 16, maxItems: 32, topics: 401,
		subs: 4000, hooks: 8,
		chunkedEvery: 4,
	},
	{
		name: "large-stream",
		docs: 12, minItems: 1500, maxItems: 5000, topics: 1500,
		subs: 512, hooks: 16, rare: 8, predShare: 0.2,
		chunkedEvery: 1, foreignEvery: 4, oneConn: true,
	},
	// sub-churn is not one of BENCHMARK.json's workloads: its latency
	// spread too far between runs of the same code (README.md gives the
	// figures). It stays runnable by name.
	{
		name: "sub-churn",
		docs: 256, minItems: 10, maxItems: 30, topics: 1000,
		subs: 3000, hooks: 50, predShare: 0.2,
		chunkedEvery: 4, churnEvery: 16,
	},
}

func lookupWorkload(name string) (params, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return params{}, false
}

// span is a byte range [start, end) of a document.
type span struct{ start, end int }

// item is one generated record: a news story (element named after its
// topic) or a catalog item (fields f<i>). The spans locate the elements
// a subscription can select, in the document's canonical serialization.
type item struct {
	topic, region, priority int
	fields                  []int // catalog only, distinct

	span       span // the item element
	titleSpan  span // news: <title>
	bodySpan   span // news: <body>
	fieldSpans []span
}

// doc is one generated document in canonical form: no whitespace
// between elements, an explicit end tag on every element, attributes in
// double quotes. That is exactly what the engine's reader-path capture
// re-serializes, so a fragment's bytes are a slice of the document on
// both the buffered and the chunked path.
type doc struct {
	index   int
	foreign bool // root element other than the one every query names
	chunked bool
	items   []item
	xml     []byte
	stamps  []int // offsets of the stamp digits, ascending
	// keys marks which topics (news) or fields (catalog) occur, the
	// only subscriptions that can match.
	keys map[int]bool
}

// subKind is the shape of a subscription.
type subKind uint8

const (
	kindItem     subKind = iota // /feed/t<N>: the first item of topic N
	kindTitle                   // /feed/t<N>/title
	kindBody                    // /feed/t<N>/body
	kindPriority                // /feed/t<N>[priority > k]
	kindRegion                  // /feed/t<N>[region = "r<k>"]
	kindCatalog                 // //catalog/item[priority > k]/f<N>
)

// sub is one subscription definition. The generator evaluates it over
// its own item data (eval); it never asks the engine.
type sub struct {
	kind    subKind
	key     int // topic (news kinds) or field (catalog)
	k       int // priority threshold or region number
	extract bool
	webhook bool
}

func (s *sub) query() string {
	switch s.kind {
	case kindItem:
		return fmt.Sprintf("/feed/t%d", s.key)
	case kindTitle:
		return fmt.Sprintf("/feed/t%d/title", s.key)
	case kindBody:
		return fmt.Sprintf("/feed/t%d/body", s.key)
	case kindPriority:
		return fmt.Sprintf("/feed/t%d[priority > %d]", s.key, s.k)
	case kindRegion:
		return fmt.Sprintf("/feed/t%d[region = \"r%d\"]", s.key, s.k)
	default:
		return fmt.Sprintf("//catalog/item[priority > %d]/f%d", s.k, s.key)
	}
}

// eval reports whether s matches d and, if so, the span of the
// document-order-first selected element.
func (s *sub) eval(d *doc) (bool, span) {
	if !d.keys[s.key] {
		return false, span{}
	}
	if s.kind == kindCatalog {
		if d.foreign {
			return false, span{}
		}
		for i := range d.items {
			it := &d.items[i]
			if it.priority <= s.k {
				continue
			}
			for j, f := range it.fields {
				if f == s.key {
					return true, it.fieldSpans[j]
				}
			}
		}
		return false, span{}
	}
	if d.foreign {
		return false, span{}
	}
	for i := range d.items {
		it := &d.items[i]
		if it.topic != s.key {
			continue
		}
		switch s.kind {
		case kindItem:
			return true, it.span
		case kindTitle:
			return true, it.titleSpan
		case kindBody:
			return true, it.bodySpan
		case kindPriority:
			if it.priority > s.k {
				return true, it.span
			}
		case kindRegion:
			if it.region == s.k {
				return true, it.span
			}
		}
	}
	return false, span{}
}

// subID names subscription slot i; the slot is recoverable from the id.
func subID(i int) string { return fmt.Sprintf("s%05d", i) }

func slotOf(id string) (int, bool) {
	if len(id) != 6 || id[0] != 's' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

// hit is one expected match: the subscription slot and, for extraction
// subscriptions, the selected element's span.
type hit struct {
	slot int
	sp   span
}

// corpus is one workload's generated input: documents, the initial
// subscription set in registration order, and each document's expected
// matches under that set.
type corpus struct {
	p    params
	seed int64
	docs []*doc
	subs []sub
	want [][]hit // want[d]: matches in registration order
	// churnable lists the slots subscription writes may touch (never a
	// webhook subscription, so expected deliveries stay exact).
	churnable []int
}

var words = []string{
	"market", "storm", "vote", "league", "orbit", "merger", "harvest",
	"summit", "verdict", "launch", "strike", "rally", "drought", "tariff",
	"census", "festival", "patent", "reactor", "transit", "budget",
}

func sentence(rng *rand.Rand, min, max int, b []byte) []byte {
	n := min + rng.Intn(max-min+1)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, words[rng.Intn(len(words))]...)
	}
	return b
}

// docWriter appends canonical XML and records spans and stamp offsets.
type docWriter struct {
	b      []byte
	stamps []int
}

func (w *docWriter) open(name string, stamped bool) int {
	start := len(w.b)
	w.b = append(w.b, '<')
	w.b = append(w.b, name...)
	if stamped {
		w.b = append(w.b, ` s="`...)
		w.stamps = append(w.stamps, len(w.b))
		for i := 0; i < stampWidth; i++ {
			w.b = append(w.b, '0')
		}
		w.b = append(w.b, '"')
	}
	w.b = append(w.b, '>')
	return start
}

func (w *docWriter) close(name string) int {
	w.b = append(w.b, "</"...)
	w.b = append(w.b, name...)
	w.b = append(w.b, '>')
	return len(w.b)
}

func (w *docWriter) leaf(name string, text []byte) span {
	s := w.open(name, false)
	w.b = append(w.b, text...)
	return span{s, w.close(name)}
}

func (p params) chunked(idx int) bool { return idx%p.chunkedEvery == p.chunkedEvery-1 }

func (p params) foreign(idx int) bool { return p.foreignEvery > 0 && idx%p.foreignEvery == 1 }

// itemCounts spreads the documents' item counts evenly over
// [minItems, maxItems] within each class of document (foreign or not,
// chunked or not) and shuffles them within the class, so the seed
// changes which document is how large but not the corpus's size mix.
func itemCounts(rng *rand.Rand, p params) []int {
	counts := make([]int, p.docs)
	classes := map[[2]bool][]int{}
	for i := 0; i < p.docs; i++ {
		k := [2]bool{p.foreign(i), p.chunked(i)}
		classes[k] = append(classes[k], i)
	}
	for _, k := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		idx := classes[k]
		for j, r := range rng.Perm(len(idx)) {
			counts[idx[j]] = p.minItems
			if len(idx) > 1 {
				counts[idx[j]] += (p.maxItems - p.minItems) * r / (len(idx) - 1)
			}
		}
	}
	return counts
}

func genNewsDoc(rng *rand.Rand, p params, idx, n int) *doc {
	d := &doc{index: idx, keys: map[int]bool{}, chunked: p.chunked(idx), foreign: p.foreign(idx)}
	root := "feed"
	if d.foreign {
		root = "archive"
	}
	w := &docWriter{b: make([]byte, 0, n*220)}
	w.open(root, false)
	var text []byte
	for i := 0; i < n; i++ {
		it := item{topic: rng.Intn(p.topics), region: rng.Intn(8), priority: rng.Intn(12)}
		name := "t" + strconv.Itoa(it.topic)
		it.span.start = w.open(name, true)
		w.leaf("region", []byte("r"+strconv.Itoa(it.region)))
		w.leaf("priority", []byte(strconv.Itoa(it.priority)))
		text = append(sentence(rng, 3, 6, append(text[:0], "story "...)), ' ')
		text = strconv.AppendInt(text, int64(idx*1000+i), 10)
		it.titleSpan = w.leaf("title", text)
		bs := w.open("body", false)
		w.leaf("p", sentence(rng, 8, 20, text[:0]))
		it.bodySpan = span{bs, w.close("body")}
		it.span.end = w.close(name)
		d.items = append(d.items, it)
		d.keys[it.topic] = true
	}
	w.close(root)
	d.xml, d.stamps = w.b, w.stamps
	return d
}

func genCatalogDoc(rng *rand.Rand, p params, idx, n int) *doc {
	d := &doc{index: idx, keys: map[int]bool{}, chunked: p.chunked(idx)}
	w := &docWriter{b: make([]byte, 0, n*120)}
	w.open("catalog", false)
	for i := 0; i < n; i++ {
		it := item{priority: rng.Intn(12)}
		it.span.start = w.open("item", false)
		w.leaf("priority", []byte(strconv.Itoa(it.priority)))
		nf := 2 + rng.Intn(3)
		for len(it.fields) < nf {
			f := rng.Intn(p.topics)
			dup := false
			for _, g := range it.fields {
				dup = dup || g == f
			}
			if dup {
				continue
			}
			name := "f" + strconv.Itoa(f)
			s := w.open(name, true)
			w.b = append(w.b, 'v')
			w.b = strconv.AppendInt(w.b, int64(rng.Intn(1000)), 10)
			it.fields = append(it.fields, f)
			it.fieldSpans = append(it.fieldSpans, span{s, w.close(name)})
			d.keys[f] = true
		}
		it.span.end = w.close("item")
		d.items = append(d.items, it)
	}
	w.close("catalog")
	d.xml, d.stamps = w.b, w.stamps
	return d
}

// genNewsSubs builds the news subscription set: one webhook-bearing
// item subscription per topic for the first hooks topics of a random
// permutation, rare subscriptions on topics outside the document
// vocabulary, and the rest split between predicated and linear shapes.
// Registration order is shuffled so webhook subscriptions interleave.
func genNewsSubs(rng *rand.Rand, p params) []sub {
	perm := rng.Perm(p.topics)
	subs := make([]sub, 0, p.subs)
	for i := 0; i < p.hooks; i++ {
		subs = append(subs, sub{kind: kindItem, key: perm[i], extract: true, webhook: true})
	}
	for i := 0; i < p.rare; i++ {
		subs = append(subs, sub{kind: kindItem, key: p.topics + 1000 + i, extract: true})
	}
	for len(subs) < p.subs {
		s := sub{key: rng.Intn(p.topics)}
		if rng.Float64() < p.predShare {
			s.extract = true
			if rng.Intn(2) == 0 {
				s.kind, s.k = kindPriority, rng.Intn(10)
			} else {
				s.kind, s.k = kindRegion, rng.Intn(8)
			}
		} else {
			switch r := rng.Intn(10); {
			case r < 4:
				s.kind, s.extract = kindItem, true
			case r < 7:
				s.kind, s.extract = kindTitle, true
			default:
				s.kind = kindBody
			}
		}
		subs = append(subs, s)
	}
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// genCatalogSubs builds the predshared shape //catalog/item[priority >
// i%10]/f<i%fields>, with hooks of them, chosen at random, extracting
// their field and carrying a webhook.
func genCatalogSubs(rng *rand.Rand, p params) []sub {
	subs := make([]sub, p.subs)
	for i := range subs {
		subs[i] = sub{kind: kindCatalog, k: i % 10, key: i % p.topics}
	}
	for _, i := range rng.Perm(p.subs)[:p.hooks] {
		subs[i].extract, subs[i].webhook = true, true
	}
	return subs
}

// generate builds a workload's corpus from its seed.
func generate(p params, seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{p: p, seed: seed}
	if p.catalog {
		c.subs = genCatalogSubs(rng, p)
	} else {
		c.subs = genNewsSubs(rng, p)
	}
	for i, n := range itemCounts(rng, p) {
		if p.catalog {
			c.docs = append(c.docs, genCatalogDoc(rng, p, i, n))
		} else {
			c.docs = append(c.docs, genNewsDoc(rng, p, i, n))
		}
	}
	for slot, s := range c.subs {
		if !s.webhook {
			c.churnable = append(c.churnable, slot)
		}
	}
	rng.Shuffle(len(c.churnable), func(i, j int) {
		c.churnable[i], c.churnable[j] = c.churnable[j], c.churnable[i]
	})
	c.want = make([][]hit, len(c.docs))
	for i, d := range c.docs {
		for slot := range c.subs {
			if ok, sp := c.subs[slot].eval(d); ok {
				c.want[i] = append(c.want[i], hit{slot, sp})
			}
		}
	}
	return c
}

// smallestDoc returns the index of the smallest document that does not
// have a foreign root.
func (c *corpus) smallestDoc() int {
	best := -1
	for i, d := range c.docs {
		if !d.foreign && (best < 0 || len(d.xml) < len(c.docs[best].xml)) {
			best = i
		}
	}
	return best
}

// churnWrite is the k-th subscription write of a churn schedule: a
// replace (PUT with another topic) or, on odd k, a delete followed by a
// re-add of the original definition. Both depend on k alone.
func (c *corpus) churnWrite(k int) (slot int, replace sub, isReplace bool) {
	slot = c.churnable[k%len(c.churnable)]
	if k%2 == 1 {
		return slot, c.subs[slot], false
	}
	s := c.subs[slot]
	s.key = (s.key + 1 + k%(c.p.topics-1)) % c.p.topics
	return slot, s, true
}

// patch writes seq as the stamp at every stamp offset of dst (a copy of
// the document).
func patchStamps(dst []byte, stamps []int, seq uint64) {
	var digits [stampWidth]byte
	v := seq
	for i := stampWidth - 1; i >= 0; i-- {
		digits[i] = byte('0' + v%10)
		v /= 10
	}
	for _, off := range stamps {
		copy(dst[off:off+stampWidth], digits[:])
	}
}

// stampedFragment returns the expected bytes of the fragment at sp once
// the document is stamped with seq.
func (d *doc) stampedFragment(sp span, seq uint64) []byte {
	out := append([]byte(nil), d.xml[sp.start:sp.end]...)
	var rel []int
	for _, off := range d.stamps {
		if off >= sp.start && off+stampWidth <= sp.end {
			rel = append(rel, off-sp.start)
		}
	}
	patchStamps(out, rel, seq)
	return out
}

// parseStamp reads the stamp of a fragment: the value of the first
// s="..." attribute.
func parseStamp(frag []byte) (uint64, bool) {
	for i := 0; i+4+stampWidth <= len(frag); i++ {
		if frag[i] == ' ' && frag[i+1] == 's' && frag[i+2] == '=' && frag[i+3] == '"' {
			v, err := strconv.ParseUint(string(frag[i+4:i+4+stampWidth]), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}
