package netscope

import (
	"fmt"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/glib"
	"repro/internal/reclog"
	"repro/internal/tuple"
)

// ingestRig is a hub with the subscriber side initialized (so the
// default snapshot window retains history, as on a live hub) and one
// publisher connection's decoder, fed directly.
func ingestRig(t *testing.T) (*Server, *ingest) {
	t.Helper()
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(0, 0)), glib.WithGranularity(0))
	srv := NewServer(loop)
	if _, err := srv.ListenSubscribers("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &ingest{s: srv, dec: tuple.NewStreamDecoder()}
}

// interleavedText encodes n tuples of 16 signals in the probe-tick shape:
// tuple i belongs to signal i%16, so no two neighbours share a name.
func interleavedText(dst []byte, first, n int) []byte {
	for i := first; i < first+n; i++ {
		dst = tuple.AppendWire(dst, tuple.Tuple{
			Time:  1_700_000_000_000 + int64(i/16),
			Value: float64(i % 1000),
			Name:  "sig." + strconv.Itoa(i%16),
		})
	}
	return dst
}

// TestIngestTextZeroAllocPerLine: once the name table and buffers are
// warm, text ingest of an interleaved 16-signal stream allocates nothing
// per line. The only allocation left on the path is the snapshot
// history's regrowth, once per DefaultSnapshotLimit tuples.
func TestIngestTextZeroAllocPerLine(t *testing.T) {
	srv, in := ingestRig(t)
	const lines, chunks = 256, 64
	var bufs [][]byte
	for c := 0; c < chunks+8; c++ {
		bufs = append(bufs, interleavedText(nil, c*lines, lines))
	}
	for _, b := range bufs[:8] {
		if err := in.feed(b, false); err != nil {
			t.Fatal(err)
		}
	}

	// One P keeps the runtime from starting OS threads — about five heap
	// objects each — inside the window (see internal/tuple's
	// TestDatagramEncoderZeroAllocSteadyState).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, b := range bufs[8:] {
		in.feed(b, false) //nolint:errcheck // checked by the counters below
	}
	runtime.ReadMemStats(&m1)

	total := lines * chunks
	if _, _, recv, perr := srv.Stats(); recv != int64(lines*(chunks+8)) || perr != 0 {
		t.Fatalf("received %d (parse errors %d), want %d", recv, perr, lines*(chunks+8))
	}
	allocs := m1.Mallocs - m0.Mallocs
	if regrowths := uint64(total/DefaultSnapshotLimit + 1); allocs > regrowths {
		t.Fatalf("ingest of %d interleaved lines allocated %d times, want at most %d history regrowths", total, allocs, regrowths)
	}
	t.Logf("%d lines, %d allocations (%.5f per line)", total, allocs, float64(allocs)/float64(total))
}

// TestIngestNamesCanonical: every tuple of a signal carries the name
// table's single string, whichever encoding it arrived in; names past the
// table cap and names the wire cannot carry still flow.
func TestIngestNamesCanonical(t *testing.T) {
	srv, in := ingestRig(t)
	var got []tuple.Tuple
	srv.OnTuple = func(tu tuple.Tuple) { got = append(got, tu) }
	in.feed(interleavedText(nil, 0, 32), false) //nolint:errcheck
	bin := tuple.NewBinaryEncoder().AppendBatch(nil, []tuple.Tuple{{Time: 1, Value: 2, Name: "sig.3"}})
	in.feed(bin, false) //nolint:errcheck
	srv.Inject(tuple.Tuple{Time: 2, Value: 3, Name: strings.Clone("sig.3")})
	var want *byte
	n := 0
	for _, tu := range got {
		if tu.Name != "sig.3" {
			continue
		}
		n++
		if p := unsafe.StringData(tu.Name); want == nil {
			want = p
		} else if p != want {
			t.Fatalf("tuple %+v carries its own copy of the name", tu)
		}
	}
	if n != 4 {
		t.Fatalf("saw %d sig.3 tuples, want 4", n)
	}

	for i := len(srv.names); i < maxInternedNames; i++ {
		srv.names[fmt.Sprintf("filler.%d", i)] = ""
	}
	got = got[:0]
	in.feed([]byte("5 1 past.cap\n6 2 a\rb\n"), false) //nolint:errcheck
	if len(got) != 2 || got[0].Name != "past.cap" || got[1].Name != "a\rb" {
		t.Fatalf("names past the cap = %+v", got)
	}
	if _, ok := srv.names["past.cap"]; ok || len(srv.names) != maxInternedNames {
		t.Fatalf("name table grew past its cap: %d", len(srv.names))
	}
}

// TestIngestParseErrorCounts: the byte parser counts exactly the lines
// IsComment + Parse reject, however they are malformed, and skips
// comments and blank lines without counting them.
func TestIngestParseErrorCounts(t *testing.T) {
	srv, in := ingestRig(t)
	lines := []string{
		"1500 42 CWND", "# comment", "", "   ", "\t# indented", "bogus", "1",
		"1 x y", "x 1 y", "1\t2 tab", "99999999999999999999 1 big", "1 2  nbsp",
		"1 0x1p-2 hex", "1 NaN nan", "+5 -0 signs", "1 1_0 underscore", "2 3\r",
	}
	var wantRecv, wantBad int64
	for _, ln := range lines {
		switch _, err := tuple.Parse(ln); {
		case tuple.IsComment(ln):
		case err != nil:
			wantBad++
		default:
			wantRecv++
		}
	}
	in.feed([]byte(strings.Join(lines, "\n")), true) //nolint:errcheck
	if _, _, recv, bad := srv.Stats(); recv != wantRecv || bad != wantBad {
		t.Fatalf("received %d, parse errors %d; want %d, %d", recv, bad, wantRecv, wantBad)
	}
}

// TestGlobVerdictMemoBounded: the per-subscription verdict memo agrees
// with the filter and stops growing at the name-table cap.
func TestGlobVerdictMemoBounded(t *testing.T) {
	sub := compileSubscription(SubscriptionRequest{Signals: []string{"cpu.*", "mem"}})
	for i := 0; i < maxInternedNames+100; i++ {
		name := "cpu." + strconv.Itoa(i)
		if i%2 == 1 {
			name = "disk." + strconv.Itoa(i)
		}
		for rep := 0; rep < 2; rep++ {
			if got, want := sub.matches(name), i%2 == 0; got != want {
				t.Fatalf("matches(%q) = %v, want %v", name, got, want)
			}
		}
	}
	if !sub.matches("mem") || sub.matches("memx") {
		t.Fatal("exact pattern misjudged")
	}
	if len(sub.verdict) != maxInternedNames {
		t.Fatalf("memo holds %d verdicts, want the cap %d", len(sub.verdict), maxInternedNames)
	}
}

// TestGlobMemoDuringFlightBackfill runs a glob-filtered subscription's
// flight-log backfill — which reads the compiled filter on its own
// goroutine — while live batches flow through the same subscription's
// verdict memo on the loop. Under -race it proves the memo stays out of
// the shared filter; in any mode it checks the filter's verdicts.
func TestGlobMemoDuringFlightBackfill(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(time.Second)
	dir := t.TempDir()
	lg, err := srv.Record(dir, reclog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(ms int64) []tuple.Tuple {
		out := make([]tuple.Tuple, 16)
		for s := range out {
			name := "p" + strconv.Itoa(s/2)
			if s%2 == 1 {
				name = "q" + strconv.Itoa(s/2)
			}
			out[s] = tuple.Tuple{Time: ms, Value: float64(s), Name: name}
		}
		return out
	}
	const recorded = 200
	for i := 1; i <= recorded; i++ {
		srv.InjectBatch(batch(int64(i * 100)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, written := lg.Stats(); written >= recorded*16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight log never drained")
		}
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		mu.Lock()
		got = append(got, tu)
		mu.Unlock()
	}, WithSignals("p*"), WithSince(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Live batches start once the request is parsed, so the read's
	// cutoff is the last recorded stamp. Each brings two new names, so
	// the loop keeps writing verdicts for as long as the read runs.
	pump(t, loop, func() bool {
		for s := range srv.hub.subs {
			if s.state != subSniffing {
				return true
			}
		}
		return false
	})
	live := 0
	pump(t, loop, func() bool {
		if sub.Backfilled() < recorded*8 && live < 500 {
			live++
			ms := int64((recorded + live) * 100)
			srv.InjectBatch([]tuple.Tuple{
				{Time: ms, Value: 1, Name: "p.live." + strconv.Itoa(live)},
				{Time: ms, Value: 2, Name: "q.live." + strconv.Itoa(live)},
			})
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= recorded*8+live
	})
	mu.Lock()
	defer mu.Unlock()
	if sub.Backfilled() != recorded*8 {
		t.Fatalf("backfilled %d, want %d", sub.Backfilled(), recorded*8)
	}
	for _, tu := range got {
		if ok, _ := path.Match("p*", tu.Name); !ok {
			t.Fatalf("filter leaked %+v", tu)
		}
	}
	if len(got) != recorded*8+live {
		t.Fatalf("received %d tuples, want %d", len(got), recorded*8+live)
	}
}
