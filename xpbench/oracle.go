package main

import (
	"fmt"
	"sync"
)

// subState is one version of the subscription set as the client
// believes the server holds it: each slot's definition (nil once
// deleted) and the slots in insertion order, which is the order the
// server reports verdicts in. A replace or a re-add moves the slot to
// the end. Versions are immutable; a write makes a new one.
type subState struct {
	defs  []*sub
	order []int
}

func initialState(subs []sub) *subState {
	st := &subState{defs: make([]*sub, len(subs)), order: make([]int, len(subs))}
	for i := range subs {
		s := subs[i]
		st.defs[i] = &s
		st.order[i] = i
	}
	return st
}

// writeOp is one subscription write: def nil deletes the slot.
type writeOp struct {
	slot int
	def  *sub
}

// apply returns the version after w. Like the server, a PUT that
// repeats a subscription's definition changes nothing, its place in the
// order included.
func (s *subState) apply(w writeOp) *subState {
	if cur := s.defs[w.slot]; cur != nil && w.def != nil && *cur == *w.def {
		return s
	}
	out := &subState{defs: append([]*sub(nil), s.defs...), order: make([]int, 0, len(s.order)+1)}
	for _, slot := range s.order {
		if slot != w.slot {
			out.order = append(out.order, slot)
		}
	}
	out.defs[w.slot] = w.def
	if w.def != nil {
		out.order = append(out.order, w.slot)
	}
	return out
}

// oracle tracks the subscription set across writes. Writes are
// serialized by the client (writeMu is held from a write's send to its
// response), so the server applies them in log order. A match request
// sees some version between the one complete when it was sent and the
// last one started before its response arrived.
type oracle struct {
	c       *corpus
	writeMu sync.Mutex

	mu       sync.Mutex
	state    *subState
	complete int       // writes whose response has arrived
	log      []writeOp // every write started, in order
}

func newOracle(c *corpus) *oracle {
	return &oracle{c: c, state: initialState(c.subs)}
}

// snapshot is taken when a match request is sent.
func (o *oracle) snapshot() (*subState, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.state, o.complete
}

// touched returns the writes started since version c0.
func (o *oracle) touched(c0 int) []writeOp {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]writeOp(nil), o.log[c0:]...)
}

// begin records a write about to be sent; the caller holds writeMu.
func (o *oracle) begin(w writeOp) {
	o.mu.Lock()
	o.log = append(o.log, w)
	o.mu.Unlock()
}

// commit records the response of the last begun write.
func (o *oracle) commit() {
	o.mu.Lock()
	o.state = o.state.apply(o.log[o.complete])
	o.complete++
	o.mu.Unlock()
}

// matchResp is the part of the /match response the benchmark checks.
type matchResp struct {
	Matched   []string          `json:"matched"`
	Fragments map[string]string `json:"fragments"`
	Stats     struct {
		BytesConsumed   int64 `json:"bytesConsumed"`
		EarlyExit       bool  `json:"earlyExit"`
		DecidedNegative bool  `json:"decidedNegative"`
	} `json:"stats"`
}

// checkStats checks the early-exit property: a document with a foreign
// root is rejected by every subscription before its end, any other is
// consumed in full (some subscription never matches, so no positive
// exit is possible either).
func checkStats(d *doc, r *matchResp) error {
	size := int64(len(d.xml))
	if d.foreign {
		if !r.Stats.DecidedNegative || r.Stats.BytesConsumed >= size {
			return fmt.Errorf("doc %d (foreign root): decidedNegative=%v consumed %d of %d",
				d.index, r.Stats.DecidedNegative, r.Stats.BytesConsumed, size)
		}
		return nil
	}
	if r.Stats.EarlyExit || r.Stats.BytesConsumed != size {
		return fmt.Errorf("doc %d: earlyExit=%v consumed %d of %d",
			d.index, r.Stats.EarlyExit, r.Stats.BytesConsumed, size)
	}
	return nil
}

// checkExact compares a response with the expected matches in order and
// each extraction subscription's fragment with the stamped document.
func checkExact(d *doc, stamped []byte, subs []*sub, want []hit, r *matchResp) error {
	if len(r.Matched) != len(want) {
		return fmt.Errorf("doc %d: %d verdicts, want %d", d.index, len(r.Matched), len(want))
	}
	frags := 0
	for i, h := range want {
		if r.Matched[i] != subID(h.slot) {
			return fmt.Errorf("doc %d: verdict %d is %s, want %s", d.index, i, r.Matched[i], subID(h.slot))
		}
		if subs[h.slot].extract {
			frags++
			if err := checkFragment(d, stamped, r, h); err != nil {
				return err
			}
		}
	}
	if len(r.Fragments) != frags {
		return fmt.Errorf("doc %d: %d fragments, want %d", d.index, len(r.Fragments), frags)
	}
	return nil
}

func checkFragment(d *doc, stamped []byte, r *matchResp, h hit) error {
	id := subID(h.slot)
	got, ok := r.Fragments[id]
	if !ok {
		return fmt.Errorf("doc %d: no fragment for %s", d.index, id)
	}
	if got != string(stamped[h.sp.start:h.sp.end]) {
		return fmt.Errorf("doc %d: fragment of %s is %q, want %q", d.index, id, got, stamped[h.sp.start:h.sp.end])
	}
	return nil
}

// checkChurn checks a response against the version snap, with the
// slots in touched (written while the request was in flight) allowed
// the verdict and fragment of any of their versions. Every other
// verdict must be exact and in insertion order.
func checkChurn(d *doc, stamped []byte, snap *subState, touched []writeOp, r *matchResp) error {
	versions := map[int][]*sub{}
	for _, w := range touched {
		if _, ok := versions[w.slot]; !ok {
			versions[w.slot] = []*sub{snap.defs[w.slot]}
		}
		versions[w.slot] = append(versions[w.slot], w.def)
	}
	var want []hit
	defs := snap.defs
	for _, slot := range snap.order {
		if _, unsure := versions[slot]; unsure {
			continue
		}
		if ok, sp := defs[slot].eval(d); ok {
			want = append(want, hit{slot, sp})
		}
	}
	var certain []string
	seen := map[int]bool{}
	frags := 0
	for _, id := range r.Matched {
		slot, ok := slotOf(id)
		if !ok || slot >= len(defs) || seen[slot] {
			return fmt.Errorf("doc %d: unexpected verdict %q", d.index, id)
		}
		seen[slot] = true
		vs, unsure := versions[slot]
		if !unsure {
			certain = append(certain, id)
			if defs[slot] != nil && defs[slot].extract {
				frags++
			}
			continue
		}
		allowed := false
		for _, v := range vs {
			if v == nil {
				continue
			}
			ok, sp := v.eval(d)
			if !ok {
				continue
			}
			if !v.extract {
				_, has := r.Fragments[id]
				allowed = allowed || !has
				continue
			}
			if checkFragment(d, stamped, r, hit{slot, sp}) == nil {
				allowed = true
			}
		}
		if !allowed {
			return fmt.Errorf("doc %d: %s matched, but no version written in flight matches so", d.index, id)
		}
		if _, has := r.Fragments[id]; has {
			frags++
		}
	}
	for slot, vs := range versions {
		if seen[slot] {
			continue
		}
		allowed := false
		for _, v := range vs {
			if v == nil {
				allowed = true
			} else if ok, _ := v.eval(d); !ok {
				allowed = true
			}
		}
		if !allowed {
			return fmt.Errorf("doc %d: %s missing, but every version written in flight matches", d.index, subID(slot))
		}
	}
	if len(certain) != len(want) {
		return fmt.Errorf("doc %d: %d settled verdicts, want %d", d.index, len(certain), len(want))
	}
	for i, h := range want {
		if certain[i] != subID(h.slot) {
			return fmt.Errorf("doc %d: settled verdict %d is %s, want %s", d.index, i, certain[i], subID(h.slot))
		}
		if defs[h.slot].extract {
			if err := checkFragment(d, stamped, r, h); err != nil {
				return err
			}
		}
	}
	if len(r.Fragments) != frags {
		return fmt.Errorf("doc %d: %d fragments, want %d", d.index, len(r.Fragments), frags)
	}
	return nil
}
