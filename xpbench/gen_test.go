package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, p := range workloads {
		a, b, other := generate(p, 7), generate(p, 7), generate(p, 8)
		if !reflect.DeepEqual(a.subs, b.subs) || !reflect.DeepEqual(a.want, b.want) ||
			!reflect.DeepEqual(a.churnable, b.churnable) {
			t.Errorf("%s: same seed, different subscriptions or expectations", p.name)
		}
		same := true
		for i := range a.docs {
			if !bytes.Equal(a.docs[i].xml, b.docs[i].xml) {
				t.Errorf("%s: same seed, document %d differs", p.name, i)
			}
			same = same && bytes.Equal(a.docs[i].xml, other.docs[i].xml)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same documents", p.name)
		}
	}
}

// refSerialize renders a subtree the way sax.Serialize does: attribute
// children as start-tag attributes, an explicit end tag on every
// element, text and attribute values escaped.
func refSerialize(b *strings.Builder, n *tree.Node) {
	switch n.Kind {
	case tree.KindText:
		b.Write(sax.AppendTextEscaped(nil, []byte(n.Text)))
	case tree.KindElement:
		b.WriteString("<" + n.Name)
		for _, c := range n.Children {
			if c.Kind == tree.KindAttribute {
				b.WriteString(" " + c.Name + `="`)
				b.Write(sax.AppendAttrEscaped(nil, []byte(c.StrVal())))
				b.WriteString(`"`)
			}
		}
		b.WriteString(">")
		for _, c := range n.Children {
			if c.Kind != tree.KindAttribute {
				refSerialize(b, c)
			}
		}
		b.WriteString("</" + n.Name + ">")
	}
}

// TestOracleAgreesWithFullEval checks the generator's own verdicts and
// fragment spans against the paper's reference semantics (FULLEVAL over
// the document tree) and the tree-based serializer, on a sample of each
// workload's documents, and that every document is already in the
// canonical form the engine's reader path re-serializes to.
func TestOracleAgreesWithFullEval(t *testing.T) {
	for _, p := range workloads {
		t.Run(p.name, func(t *testing.T) { checkOracle(t, p) })
	}
}

func checkOracle(t *testing.T, p params) {
	c := generate(p, 3)
	queries := make([]*query.Query, len(c.subs))
	for i := range c.subs {
		queries[i] = query.MustParse(c.subs[i].query())
	}
	// Buffered and chunked documents, and a foreign root where the
	// workload has one; the large documents are sampled more thinly.
	sample := []int{0, 1}
	if p.docs > 64 {
		sample = append(sample, 2, 3, 129)
	}
	for _, di := range sample {
		d := c.docs[di]
		patchStamps(d.xml, d.stamps, uint64(1000+di))
		root, err := tree.Parse(string(d.xml))
		if err != nil {
			t.Fatalf("doc %d: %v", di, err)
		}
		var whole strings.Builder
		refSerialize(&whole, root.Children[0])
		if whole.String() != string(d.xml) {
			t.Fatalf("doc %d is not in canonical form", di)
		}
		want := map[int]span{}
		for _, h := range c.want[di] {
			want[h.slot] = h.sp
		}
		for slot, q := range queries {
			nodes := semantics.FullEval(q, root)
			sp, ok := want[slot]
			if (len(nodes) > 0) != ok {
				t.Fatalf("doc %d: %s: generator says %v, FULLEVAL selects %d nodes",
					di, c.subs[slot].query(), ok, len(nodes))
			}
			if !ok {
				continue
			}
			var frag strings.Builder
			refSerialize(&frag, nodes[0])
			if got := string(d.xml[sp.start:sp.end]); got != frag.String() {
				t.Fatalf("doc %d: %s: generator fragment %q, reference %q",
					di, c.subs[slot].query(), got, frag.String())
			}
		}
	}
}

// TestChurnCheck pins the in-flight rule: a subscription written while
// the request was in flight may carry its old or its new verdict, and
// every other verdict must be exact.
func TestChurnCheck(t *testing.T) {
	p, _ := lookupWorkload("sub-churn")
	c := generate(p, 5)
	d := c.docs[0]
	snap := initialState(c.subs)
	stamped := append([]byte(nil), d.xml...)
	resp := func(st *subState) *matchResp {
		r := &matchResp{Fragments: map[string]string{}}
		for _, slot := range st.order {
			if ok, sp := st.defs[slot].eval(d); ok {
				r.Matched = append(r.Matched, subID(slot))
				if st.defs[slot].extract {
					r.Fragments[subID(slot)] = string(stamped[sp.start:sp.end])
				}
			}
		}
		return r
	}
	// Delete a subscription the document matches.
	slot := -1
	for _, h := range c.want[0] {
		if !c.subs[h.slot].webhook {
			slot = h.slot
			break
		}
	}
	if slot < 0 {
		t.Fatal("document 0 matches no churnable subscription")
	}
	w := writeOp{slot: slot}
	after := snap.apply(w)
	if err := checkChurn(d, stamped, snap, []writeOp{w}, resp(snap)); err != nil {
		t.Errorf("old verdict refused: %v", err)
	}
	if err := checkChurn(d, stamped, snap, []writeOp{w}, resp(after)); err != nil {
		t.Errorf("new verdict refused: %v", err)
	}
	if err := checkChurn(d, stamped, snap, nil, resp(after)); err == nil {
		t.Error("missing verdict accepted with no write in flight")
	}
	wrong := resp(snap)
	wrong.Matched[0], wrong.Matched[len(wrong.Matched)-1] = wrong.Matched[len(wrong.Matched)-1], wrong.Matched[0]
	if err := checkChurn(d, stamped, snap, []writeOp{w}, wrong); err == nil && len(wrong.Matched) > 2 {
		t.Error("verdicts out of insertion order accepted")
	}
	// A PUT that repeats the definition leaves the order alone, as the
	// server does.
	if same := snap.apply(writeOp{slot, snap.defs[slot]}); !reflect.DeepEqual(same.order, snap.order) {
		t.Error("repeating a definition moved the subscription")
	}
	if err := checkExact(d, stamped, snap.defs, c.want[0], resp(snap)); err != nil {
		t.Errorf("exact check refused the expected response: %v", err)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		for i, q := range []float64{.25, .5, .75} {
			if got := quantile(append([]float64(nil), c.xs...), q); math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, q, got, c.want[i])
			}
		}
	}
}
