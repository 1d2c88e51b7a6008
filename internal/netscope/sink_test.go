package netscope

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/tuple"
)

// recSink records what the hub hands an in-process subscriber.
type recSink struct {
	opens [][]Part
	sends [][]byte
	ctrls []tuple.ControlFrame
}

func (r *recSink) Open(parts []Part)                    { r.opens = append(r.opens, parts) }
func (r *recSink) Send(chunk []byte)                    { r.sends = append(r.sends, chunk) }
func (r *recSink) Control(frames ...tuple.ControlFrame) { r.ctrls = append(r.ctrls, frames...) }

// frameText renders a control frame the way a TCP subscriber receives it.
func frameText(f tuple.ControlFrame) string {
	return string(tuple.AppendControl(nil, f.Verb, f.Fields...))
}

// TestSubscribeSinkJSON: an in-process subscription gets the opening unit
// with control frames as values and tuples as JSON, filtered live chunks,
// command replies as frames, and nothing after Cancel.
func TestSubscribeSinkJSON(t *testing.T) {
	_, srv, _, _ := hubRig(t)
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "a"})
	srv.Inject(tuple.Tuple{Time: 20, Value: 2, Name: "b"})

	var rs recSink
	h, err := srv.SubscribeSink(&rs, SubscriptionRequest{Signals: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.opens) != 1 {
		t.Fatalf("opening units = %d, want 1", len(rs.opens))
	}
	var open []string
	for _, p := range rs.opens[0] {
		if p.Tuples != nil {
			open = append(open, string(p.Tuples))
		} else {
			open = append(open, frameText(p.Frame))
		}
	}
	want := []string{
		"# gscope-hub 2 signals=a\n",
		"# snapshot tuples=1 window-ms=5000\n",
		`[[10,1,"a"]]`,
		"# snapshot-end\n",
	}
	if fmt.Sprint(open) != fmt.Sprint(want) {
		t.Fatalf("opening unit = %q, want %q", open, want)
	}

	srv.InjectBatch([]tuple.Tuple{{Time: 30, Value: 3, Name: "a"}, {Time: 30, Value: 9, Name: "b"}, {Time: 40, Value: 4.5, Name: "a"}})
	if len(rs.sends) != 1 || string(rs.sends[0]) != `[[30,3,"a"],[40,4.5,"a"]]` {
		t.Fatalf("live chunks = %q", rs.sends)
	}

	h.Command("param list")
	if len(rs.ctrls) != 1 || rs.ctrls[0].Verb != "error" {
		t.Fatalf("command reply = %+v, want an error frame (no registry)", rs.ctrls)
	}
	if srv.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d, want 1", srv.Subscribers())
	}

	h.Cancel()
	h.Cancel() // idempotent
	srv.Inject(tuple.Tuple{Time: 50, Value: 5, Name: "a"})
	h.Command("param list")
	if len(rs.sends) != 1 || len(rs.ctrls) != 1 {
		t.Fatalf("sink fed after Cancel: %d chunks, %d frames", len(rs.sends), len(rs.ctrls))
	}
	if st := srv.FanoutStats(); st.Subscribes != 1 || st.Unsubscribes != 1 || st.Filtered != 1 {
		t.Fatalf("fan-out stats = %+v", st)
	}
}

// TestSubscribeSinkBinary: Wire=3 sinks get a v3 stream a StreamDecoder
// reads back (the snapshot's not-yet-bound names as text lines, which v3
// allows), control frames still as values.
func TestSubscribeSinkBinary(t *testing.T) {
	_, srv, _, _ := hubRig(t)
	srv.Inject(tuple.Tuple{Time: 10, Value: 1.5, Name: "a"})
	var rs recSink
	if _, err := srv.SubscribeSink(&rs, SubscriptionRequest{Wire: 3}); err != nil {
		t.Fatal(err)
	}
	srv.Inject(tuple.Tuple{Time: 20, Value: 2.5, Name: "a"})
	var stream []byte
	for _, p := range rs.opens[0] {
		if p.Tuples != nil {
			stream = append(stream, p.Tuples...)
		}
	}
	for _, c := range rs.sends {
		stream = append(stream, c...)
	}
	var got []tuple.Tuple
	err := tuple.NewStreamDecoder().Feed(stream,
		func(line string) {
			tu, err := tuple.Parse(line)
			if err != nil {
				t.Errorf("unexpected text line %q", line)
			}
			got = append(got, tu)
		},
		func(b []tuple.Tuple) { got = append(got, b...) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Value != 1.5 || got[1].Value != 2.5 {
		t.Fatalf("decoded %v", got)
	}
	if ack := rs.opens[0][0].Frame; ack.Verb != hubMagic || frameText(ack) != "# gscope-hub 2 wire=3\n" {
		t.Fatalf("ack = %+v", ack)
	}
}

// TestAppendJSONChunksBound: a batch of any size splits into valid JSON
// arrays of at most maxJSONChunk bytes plus one tuple that together carry
// exactly the cleaned batch.
func TestAppendJSONChunksBound(t *testing.T) {
	var batch, cleaned []tuple.Tuple
	maxTuple := 0
	for i := 0; i < 20000; i++ {
		name := fmt.Sprintf("sig.%d%s", i%7, strings.Repeat("x", i%97))
		if i%1000 == 0 {
			name = " needs\ncleaning "
		}
		tu := tuple.Tuple{Time: int64(i), Value: float64(i) / 3, Name: name}
		batch = append(batch, tu)
		tu.Name = tuple.CleanName(tu.Name)
		cleaned = append(cleaned, tu)
		maxTuple = max(maxTuple, len(tuple.AppendJSONTuple(nil, tu))+1)
	}
	chunks := appendJSONChunks(nil, batch)
	if len(chunks) < 2 {
		t.Fatalf("%d chunks for a %d-tuple batch", len(chunks), len(batch))
	}
	var inner [][]byte
	for i, c := range chunks {
		if len(c) > maxJSONChunk+maxTuple+1 {
			t.Fatalf("chunk %d is %d bytes, bound %d", i, len(c), maxJSONChunk+maxTuple+1)
		}
		if c[0] != '[' || c[len(c)-1] != ']' {
			t.Fatalf("chunk %d is not an array", i)
		}
		inner = append(inner, c[1:len(c)-1])
	}
	joined := "[" + string(bytes.Join(inner, []byte(","))) + "]"
	if want := string(tuple.AppendJSONBatch(nil, cleaned)); joined != want {
		t.Fatal("chunks do not reassemble into the cleaned batch")
	}
	if appendJSONChunks(nil, nil) != nil {
		t.Fatal("an empty batch produced chunks")
	}
}

// TestV2ActivationCostIndependentOfHistory: accepting a connection
// captures the history view without formatting it, so a v2 client's
// activation costs the same whether the hub retains 16 tuples or 4096 —
// only a client that turns out to be v1 pays for the text snapshot.
func TestV2ActivationCostIndependentOfHistory(t *testing.T) {
	activation := func(history int) float64 {
		_, srv, _, _ := hubRig(t)
		srv.SetSnapshotWindow(time.Hour)
		for i := 0; i < history; i++ {
			srv.Inject(tuple.Tuple{Time: int64(i), Value: float64(i) + 0.5, Name: "s"})
		}
		return testing.AllocsPerRun(20, func() {
			hubEnd, peer := net.Pipe()
			sub := srv.subscribeSniff(hubEnd)
			srv.subscriberLine(sub, "gscope-sub 2 signals=absent")
			srv.unsubscribe(sub)
			peer.Close()
		})
	}
	small, large := activation(16), activation(DefaultSnapshotLimit)
	t.Logf("allocations per v2 activation: %v (16 retained), %v (4096 retained)", small, large)
	if large > small+32 {
		t.Fatalf("v2 activation allocates %v with 4096 retained tuples vs %v with 16", large, small)
	}
}
